"""Packet traces on an integer tick grid.

A trace records the arrival tick of each packet in order.  Packets are
numbered 1..N; index 0 is a virtual origin with arrival time 0, used by the
inter-arrival accessor but never counted as a packet.  Concurrent arrivals
(equal ticks) are legal.  Optionally every packet carries a positive bit
length, enabling the cumulative (bit-domain) view.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from fractions import Fraction
from io import TextIOBase
from itertools import chain, repeat
from operator import le

from ._record import Record
from .errors import FormatError, MissingLengthsError
from .rational import RationalLike

CSV_HEADER_TICKS = "arrival_ticks"
CSV_HEADER_LENGTHS = "length_bits"


class Trace(Record):
    """Finite, nondecreasing sequence of packet arrival ticks.

    ``arrivals[i]`` is the arrival tick of packet ``i + 1``.  When ``lengths``
    is present it has one positive entry per packet, in bits.
    """

    __slots__ = ("arrivals", "lengths")

    def __init__(self, arrivals: Iterable[int], lengths: Iterable[int] | None = None):
        arrivals = tuple(map(int, arrivals))
        # a(0) = 0 and a nondecreasing is one condition, 0 <= a(1) <= a(2) <= ...;
        # the first packet that breaks it is looked up only on failure
        if not all(map(le, chain((0,), arrivals), arrivals)):
            n, prev, a = next(
                (n, prev, a)
                for n, (prev, a) in enumerate(zip(chain((0,), arrivals), arrivals), start=1)
                if a < prev
            )
            if a < 0:
                raise ValueError(f"arrival tick {a} at packet {n} is negative")
            raise ValueError(
                f"arrival ticks must be nondecreasing: packet {n} at {a} after {prev}"
            )
        if lengths is not None:
            lengths = tuple(map(int, lengths))
            if len(lengths) != len(arrivals):
                raise ValueError(
                    f"{len(lengths)} lengths for {len(arrivals)} packets"
                )
            if min(lengths, default=1) <= 0:
                n, l = next((n, l) for n, l in enumerate(lengths, start=1) if l <= 0)
                raise ValueError(f"length {l} of packet {n} is not positive")
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "lengths", lengths)

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


def read_trace_csv(source: str | TextIOBase) -> Trace:
    """Read a trace from CSV text or a file path.

    Format: optional header ``arrival_ticks[,length_bits]``, then one packet
    per line.  Ticks are nonnegative base-10 integers and must be
    nondecreasing; lengths, when the column is present, are positive
    base-10 integers.  Spaces around fields, blank lines and CRLF line ends
    are accepted.  Rows have as many columns as the first, or two when the
    header names lengths.  A file with no packet rows is the empty trace,
    with lengths when its header names them.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace_csv(fh)
    rows = list(filter(None, map(str.strip, source)))
    width = 1
    if rows and rows[0].split(",")[0].strip() == CSV_HEADER_TICKS:
        header_cols = [c.strip() for c in rows[0].split(",")]
        if header_cols not in ([CSV_HEADER_TICKS], [CSV_HEADER_TICKS, CSV_HEADER_LENGTHS]):
            raise FormatError(f"unrecognized trace header {rows[0]!r}")
        width = len(header_cols)  # a header naming lengths binds the rows
        del rows[0]
    if rows and width == 1:
        width = rows[0].count(",") + 1
    count = len(rows)
    # each stage is dropped once the next holds the data: the row list, the
    # joined text and the integers are never all alive at once.  The rows
    # split back from the text, unless one holds a "\n" of its own (a stream
    # that ends lines at "\r" only): then the list is kept
    body = "\n".join(rows)
    if body.count("\n") < count:
        rows = None
    values = _bulk_integers(body, count, width)
    if values is None:
        values = _row_integers(body.split("\n") if rows is None else rows, width)
    del body, rows
    arrivals, lengths = (values[::2], values[1::2]) if width == 2 else (values, None)
    del values
    try:
        return Trace(arrivals=arrivals, lengths=lengths)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# the digits, the sign and the padding int() takes in a field; "\n" ends a row
_NOT_SEPARATOR = str.maketrans("", "", "0123456789- \t\r\v\f")


def _bulk_integers(body: str, count: int, width: int) -> list[int] | None:
    """Every field of the ``count`` rows joined in ``body``, in file order,
    or None when some row breaks the format or holds a field the JSON
    decoder refuses."""
    if width > 2:
        return None
    # every other character (non-ASCII, "_", "+", a letter) stays in the
    # skeleton and fails the comparison
    if body.translate(_NOT_SEPARATOR) != "\n".join(repeat("," * (width - 1), count)):
        return None
    fields = body.replace("\n", ",")
    # Each field is now digits, "-" and padding between separators, and the
    # rows have the right width.  On such text the JSON number grammar
    # -?(0|[1-9][0-9]*), padded by space, tab or CR, is a subset of what int()
    # takes, with the same value: the decoder returns int()'s integers or
    # raises.  What it refuses and int() may still take ("007", "\v"
    # padding) is left to the row loop, which reads it as int() does.
    try:
        return json.loads(f"[{fields}]")
    except ValueError:
        return None


def _row_integers(rows: list[str], width: int) -> list[int]:
    """The fields row by row, raising for the first row, in file order, that
    breaks the format."""
    values: list[int] = []
    for lineno, row in enumerate(rows, start=1):
        cols = row.split(",")
        if len(cols) > 2:
            raise FormatError(f"row {lineno}: expected 1 or 2 columns, got {len(cols)}")
        if len(cols) != width:
            raise FormatError(f"row {lineno}: inconsistent column count")
        # int() alone would also take "1_0", "+5" and non-ASCII digits
        if not row.isascii() or "_" in row or "+" in row:
            raise FormatError(
                f"row {lineno}: fields must be ASCII base-10 integers, got {row!r}"
            )
        try:
            values.extend(map(int, cols))
        except ValueError:
            raise _field_error(lineno, row) from None
    return values


def _field_error(lineno: int, row: str) -> FormatError:
    """The error for a row whose fields int() rejects, naming the first bad
    field without its padding ("1 , x" names 'x', not ' x')."""
    for field in row.split(","):
        try:
            int(field.strip())
        except ValueError as exc:
            return FormatError(f"row {lineno}: {exc}")
    # str.strip() drops the separators 0x1c-0x1f around a field, int() does not
    return FormatError(f"row {lineno}: fields must be ASCII base-10 integers, got {row!r}")


def write_trace_csv(trace: Trace) -> str:
    """The trace as CSV text: the header, then one row per packet."""
    if trace.lengths is None:
        return f"{CSV_HEADER_TICKS}\n" + ("%d\n" * len(trace)) % trace.arrivals
    values = tuple(chain.from_iterable(zip(trace.arrivals, trace.lengths)))
    return f"{CSV_HEADER_TICKS},{CSV_HEADER_LENGTHS}\n" + ("%d,%d\n" * len(trace)) % values
