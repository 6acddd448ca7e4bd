"""Flow aggregation: multiplexing traces into one arrival process.

:func:`merge_traces` is a sorted multiset merge.  Its first-principles
twin, the composition formula of eq. 1, is
:func:`maxplus_tc.reference.aggregate_eq1`.
"""

from __future__ import annotations

from itertools import count, repeat
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
    entries = []
    for flow, trace in enumerate(traces):
        entries += zip(trace.arrivals, repeat(flow), count(1), trace.lengths or repeat(None))
    entries.sort()  # (tick, flow, index) is unique: lengths never decide the order
    arrivals, flows, indices, lengths = zip(*entries) if entries else ((),) * 4
    merged = Trace(arrivals=arrivals, lengths=lengths if all(with_lengths) else None)
    return merged, tuple(map(PacketOrigin, flows, indices))


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces by arrival tick (see :func:`merge_traces_with_provenance`)."""
    merged, _ = merge_traces_with_provenance(traces)
    return merged
