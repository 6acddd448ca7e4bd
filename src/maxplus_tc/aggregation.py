"""Flow aggregation: multiplexing traces into one arrival process.

:func:`merge_traces` is the production path (a sorted multiset merge).
:func:`aggregate_eq1` recomputes a single aggregate arrival time from first
principles, as the infimum over all ways to split the first n aggregate
packets among the flows of the latest per-flow arrival.  It enumerates
every composition, which is intentionally exponential in the flow count;
it exists purely to cross-check the merge on small instances, because the
composition form is what makes aggregate envelopes hard to derive directly.
"""

from __future__ import annotations

import math
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
        for idx, tick in enumerate(trace.arrivals):
            bits = trace.lengths[idx] if trace.lengths is not None else None
            entries.append((tick, flow, idx + 1, bits))
    entries.sort()  # (tick, flow, index) is unique: lengths never decide the order
    arrivals = tuple(e[0] for e in entries)
    lengths = tuple(e[3] for e in entries) if all(with_lengths) else None
    origins = tuple(PacketOrigin(flow=e[1], index=e[2]) for e in entries)
    merged = Trace(arrivals=arrivals, lengths=lengths)
    return merged, origins


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces by arrival tick (see :func:`merge_traces_with_provenance`)."""
    merged, _ = merge_traces_with_provenance(traces)
    return merged


def aggregate_eq1(traces: Sequence[Trace], n: int) -> int:
    """Aggregate arrival time of packet n, by exhaustive composition.

    Over every split n = m_1 + ... + m_I of the packet count among the
    flows, the aggregate's n-th arrival is the smallest achievable value of
    ``max_i arrival_i(m_i)`` (taking +infinity when flow i has fewer than
    m_i packets).  Must equal ``merge_traces(traces).arrival(n)``.
    """
    if not traces:
        raise ValueError("need at least one trace")
    total = sum(t.num_packets for t in traces)
    if n < 0 or n > total:
        raise IndexError(f"index {n} out of range 0..{total}")
    if n == 0:
        return 0

    sizes = [t.num_packets for t in traces]
    best: float | int = math.inf

    def recurse(flow: int, remaining: int, worst: int) -> None:
        nonlocal best
        if flow == len(traces) - 1:
            if remaining > sizes[flow]:
                return
            value = max(worst, traces[flow].arrival(remaining))
            if value < best:
                best = value
            return
        for m in range(min(remaining, sizes[flow]) + 1):
            recurse(flow + 1, remaining - m, max(worst, traces[flow].arrival(m)))

    recurse(0, n, 0)
    assert best is not math.inf  # n <= total packets guarantees a finite split
    return int(best)
