"""Flow aggregation: multiplexing traces into one arrival process.

A merge is one stable sort of the flows' ticks laid end to end: Timsort
merges the presorted flows as runs, and stability keeps ties in (flow,
index) order.  Ticks, lengths and, when asked for, each packet's flow and
index are gathered through that order, with no Python call per packet.
Its twins in :mod:`maxplus_tc.reference` are a tuple sort and eq. 1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, repeat

from .errors import InconsistentInputError
from .trace import Trace

PacketOrigin = namedtuple("PacketOrigin", "flow index")
PacketOrigin.__doc__ = """Provenance of one aggregate packet: which input flow it came from
(0-based) and its 1-based index within that flow."""


def _merge(traces: Sequence[Trace]) -> tuple[Trace, list[int]]:
    """The merged trace and the order of the flows' packets, end to end, in it."""
    if not traces:
        raise ValueError("need at least one trace")
    with_lengths = [t.lengths is not None for t in traces]
    if any(with_lengths) and not all(with_lengths):
        raise InconsistentInputError(
            "either every trace carries lengths or none does"
        )
    ticks = list(chain.from_iterable(t.arrivals for t in traces))
    order = sorted(range(len(ticks)), key=ticks.__getitem__)
    lengths = list(chain.from_iterable(t.lengths or () for t in traces))
    # a stable sort of checked traces is nondecreasing with positive lengths
    merged = Trace._of(tuple(map(ticks.__getitem__, order)),
                       tuple(map(lengths.__getitem__, order)) if all(with_lengths) else None)
    return merged, order


def _origins(traces: Sequence[Trace], order: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each merged packet's flow and 1-based index, as two int columns."""
    flows = list(chain.from_iterable(map(repeat, range(len(traces)), map(len, traces))))
    indices = list(chain.from_iterable(range(1, len(t) + 1) for t in traces))
    return tuple(map(flows.__getitem__, order)), tuple(map(indices.__getitem__, order))


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces by arrival tick, breaking ties by flow then by index."""
    return _merge(traces)[0]


def merge_traces_with_provenance(
    traces: Sequence[Trace],
) -> tuple[Trace, tuple[PacketOrigin, ...]]:
    """Merge traces as :func:`merge_traces` does, with each packet's provenance."""
    merged, order = _merge(traces)
    return merged, tuple(map(tuple.__new__, repeat(PacketOrigin), zip(*_origins(traces, order))))
