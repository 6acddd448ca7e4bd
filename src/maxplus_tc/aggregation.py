"""Flow aggregation: multiplexing traces into one arrival process.

:func:`merge_traces_with_provenance` is one stable sort of the flows' ticks
laid end to end: Timsort merges the presorted flows as runs, and stability
keeps ties in (flow, index) order.  Every column is gathered through that
order, so no step makes a Python call per packet.  Its twins in
:mod:`maxplus_tc.reference` are a tuple sort and eq. 1's composition formula.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple, Sequence

from .errors import InconsistentInputError
from .trace import Trace


class PacketOrigin(NamedTuple):
    """Provenance of one aggregate packet: which input flow it came from
    (0-based) and its 1-based index within that flow."""

    flow: int
    index: int


def merge_traces_with_provenance(
    traces: Sequence[Trace],
) -> tuple[Trace, tuple[PacketOrigin, ...]]:
    """Merge traces by arrival tick, breaking ties by flow then intra-flow
    index; returns the aggregate and per-packet provenance."""
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
    origins = list(map(tuple.__new__, repeat(PacketOrigin), chain.from_iterable(
        zip(repeat(flow), range(1, len(t) + 1)) for flow, t in enumerate(traces))))
    merged = Trace(tuple(map(ticks.__getitem__, order)),
                   tuple(map(lengths.__getitem__, order)) if all(with_lengths) else None)
    return merged, tuple(map(origins.__getitem__, order))


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces by arrival tick (see :func:`merge_traces_with_provenance`)."""
    merged, _ = merge_traces_with_provenance(traces)
    return merged
