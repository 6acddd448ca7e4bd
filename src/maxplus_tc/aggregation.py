"""Flow aggregation: multiplexing traces into one arrival process.

A merge is one stable sort of the flows' ticks laid end to end: Timsort
merges the presorted flows as runs, and stability keeps ties in (flow,
index) order.  Ticks, lengths and, when asked for, each packet's flow and
index are gathered through that order, with no Python call per packet.
Its twins in :mod:`maxplus_tc.reference` are a tuple sort and eq. 1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, sub

from .errors import InconsistentInputError
from .trace import _PIECE, Trace

PacketOrigin = namedtuple("PacketOrigin", "flow index")
PacketOrigin.__doc__ = """Provenance of one aggregate packet: which input flow it came from
(0-based) and its 1-based index within that flow."""


def _merge(traces: Sequence[Trace]) -> tuple[Trace, list[int], Callable[[Sequence], tuple]]:
    """The merged trace, the order of the flows' packets, end to end, in it, and its gather."""
    if not traces:
        raise ValueError("need at least one trace")
    with_lengths = [t.lengths is not None for t in traces]
    if any(with_lengths) and not all(with_lengths):
        raise InconsistentInputError(
            "either every trace carries lengths or none does"
        )
    ticks = list(chain.from_iterable(t.arrivals for t in traces))
    order = sorted(range(len(ticks)), key=ticks.__getitem__)
    # an itemgetter of one index returns a bare value, and of none cannot be made
    gather = itemgetter(*order) if len(order) > 1 else lambda column: tuple(map(column.__getitem__, order))
    lengths = list(chain.from_iterable(t.lengths or () for t in traces))
    # a stable sort of checked traces is nondecreasing with positive lengths
    merged = Trace._of(gather(ticks), gather(lengths) if all(with_lengths) else None)
    return merged, order, gather


def _origins(traces: Sequence[Trace], order: list[int], gather: Callable[[Sequence], tuple],
             per_flow: Iterable) -> tuple[tuple, Iterator[int]]:
    """``per_flow[f]`` for each merged packet of flow f, and the packets' 1-based indices,
    each computed when read: a place in ``order`` less the place before its flow's start."""
    counts = list(map(len, traces))
    column, bases = [gather(list(chain.from_iterable(map(repeat, values, counts))))
                     for values in (per_flow, accumulate(counts, initial=-1))]
    return column, map(sub, order, bases)


def _provenance_pieces(traces: Sequence[Trace], order: list[int],
                       gather: Callable[[Sequence], tuple]) -> Iterator[str]:
    """The ``merge --provenance`` document as ``json.dumps(..., indent=2)`` lays it
    out, in pieces of _PIECE records filled by one ``%`` over their indices."""
    record = '{\n      "flow": %d,\n      "index": %%d\n    }'
    records, indices = _origins(traces, order, gather, [record % f for f in range(len(traces))])
    yield '{\n  "packets": [\n    ' if order else '{\n  "packets": ['
    for start in range(0, len(order), _PIECE):
        text = ",\n    ".join(records[start:start + _PIECE]) % tuple(islice(indices, _PIECE))
        yield ",\n    " + text if start else text
    yield "\n  ]\n}\n" if order else "]\n}\n"


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces by arrival tick, breaking ties by flow then by index."""
    return _merge(traces)[0]


def merge_traces_with_provenance(
    traces: Sequence[Trace],
) -> tuple[Trace, tuple[PacketOrigin, ...]]:
    """Merge traces as :func:`merge_traces` does, with each packet's provenance."""
    merged, order, gather = _merge(traces)
    origins = zip(*_origins(traces, order, gather, range(len(traces))))
    return merged, tuple(map(tuple.__new__, repeat(PacketOrigin), origins))
