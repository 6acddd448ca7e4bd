"""Packet traces on an integer tick grid.

A trace records the arrival tick of each packet in order.  Packets are
numbered 1..N; index 0 is a virtual origin with arrival time 0, used by the
inter-arrival accessor but never counted as a packet.  Concurrent arrivals
(equal ticks) are legal.  Optionally every packet carries a positive bit
length, enabling the cumulative (bit-domain) view.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

from .errors import FormatError, MissingLengthsError
from .rational import RationalLike

CSV_HEADER_TICKS = "arrival_ticks"
CSV_HEADER_LENGTHS = "length_bits"


@dataclass(frozen=True)
class Trace:
    """Finite, nondecreasing sequence of packet arrival ticks.

    ``arrivals[i]`` is the arrival tick of packet ``i + 1``.  When ``lengths``
    is present it has one positive entry per packet, in bits.
    """

    arrivals: tuple[int, ...]
    lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        arrivals = tuple(int(a) for a in self.arrivals)
        object.__setattr__(self, "arrivals", arrivals)
        prev = 0
        for i, a in enumerate(arrivals):
            if a < 0:
                raise ValueError(f"arrival tick {a} at packet {i + 1} is negative")
            if a < prev:
                raise ValueError(
                    f"arrival ticks must be nondecreasing: packet {i + 1} at {a} after {prev}"
                )
            prev = a
        if self.lengths is not None:
            lengths = tuple(int(l) for l in self.lengths)
            object.__setattr__(self, "lengths", lengths)
            if len(lengths) != len(arrivals):
                raise ValueError(
                    f"{len(lengths)} lengths for {len(arrivals)} packets"
                )
            for i, l in enumerate(lengths):
                if l <= 0:
                    raise ValueError(f"length {l} of packet {i + 1} is not positive")

    @property
    def num_packets(self) -> int:
        return len(self.arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)

    def arrival(self, n: int) -> int:
        """Arrival tick of packet n; n = 0 is the virtual origin at tick 0."""
        if n == 0:
            return 0
        if not 1 <= n <= len(self.arrivals):
            raise IndexError(f"packet index {n} out of range 0..{len(self.arrivals)}")
        return self.arrivals[n - 1]


def interarrival(trace: Trace, m: int, n: int) -> int:
    """Elapsed ticks between the arrivals of packets m and n (0 <= m <= n)."""
    if m < 0 or n < m or n > trace.num_packets:
        raise IndexError(
            f"need 0 <= m <= n <= {trace.num_packets}, got m={m}, n={n}"
        )
    return trace.arrival(n) - trace.arrival(m)


def cumulative(trace: Trace, t: RationalLike) -> int:
    """Total bits arrived up to and including time t (packets at exactly t count)."""
    if trace.lengths is None and trace.num_packets > 0:
        raise MissingLengthsError("cumulative traffic needs per-packet lengths")
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    total = 0
    for tick, bits in zip(trace.arrivals, trace.lengths or ()):
        if tick > t:
            break
        total += bits
    return total


def read_trace_csv(source: str | TextIO) -> Trace:
    """Read a trace from CSV text or a file path.

    Format: optional header ``arrival_ticks[,length_bits]``, then one packet
    per line.  Ticks are nonnegative base-10 integers and must be
    nondecreasing; lengths, when the column is present, are positive
    base-10 integers.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace_csv(fh)
    lines = [line.strip() for line in source]
    rows = [line for line in lines if line]
    if rows and rows[0].split(",")[0].strip() == CSV_HEADER_TICKS:
        header_cols = [c.strip() for c in rows[0].split(",")]
        if header_cols not in ([CSV_HEADER_TICKS], [CSV_HEADER_TICKS, CSV_HEADER_LENGTHS]):
            raise FormatError(f"unrecognized trace header {rows[0]!r}")
        rows = rows[1:]
    arrivals: list[int] = []
    lengths: list[int] = []
    saw_lengths: bool | None = None
    for lineno, row in enumerate(rows, start=1):
        cols = [c.strip() for c in row.split(",")]
        if len(cols) not in (1, 2):
            raise FormatError(f"row {lineno}: expected 1 or 2 columns, got {len(cols)}")
        has_len = len(cols) == 2
        if saw_lengths is None:
            saw_lengths = has_len
        elif saw_lengths != has_len:
            raise FormatError(f"row {lineno}: inconsistent column count")
        # int() alone would also take "1_0", "+5" and non-ASCII digits
        if not row.isascii() or "_" in row or "+" in row:
            raise FormatError(
                f"row {lineno}: fields must be ASCII base-10 integers, got {row!r}"
            )
        try:
            arrivals.append(int(cols[0]))
            if has_len:
                lengths.append(int(cols[1]))
        except ValueError as exc:
            raise FormatError(f"row {lineno}: {exc}") from None
    try:
        return Trace(
            arrivals=tuple(arrivals),
            lengths=tuple(lengths) if saw_lengths else None,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_trace_csv(trace: Trace, dest: str | TextIO | None = None) -> str:
    """Write a trace as CSV; returns the text (and writes it when dest given)."""
    buf = io.StringIO()
    if trace.lengths is not None:
        buf.write(f"{CSV_HEADER_TICKS},{CSV_HEADER_LENGTHS}\n")
        for tick, bits in zip(trace.arrivals, trace.lengths):
            buf.write(f"{tick},{bits}\n")
    else:
        buf.write(f"{CSV_HEADER_TICKS}\n")
        for tick in trace.arrivals:
            buf.write(f"{tick}\n")
    text = buf.getvalue()
    if dest is None:
        return text
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        dest.write(text)
    return text
