"""Packet traces on an integer tick grid.

A trace records the arrival tick of each packet in order.  Packets are
numbered 1..N; index 0 is a virtual origin with arrival time 0, read by
:meth:`Trace.arrival` but never counted as a packet.  Concurrent arrivals
(equal ticks) are legal.  Optionally every packet carries a positive bit
length, enabling the cumulative (bit-domain) view.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from io import BytesIO, TextIOBase
from itertools import chain

from ._record import Record
from .errors import FormatError

CSV_HEADER_TICKS = "arrival_ticks"
CSV_HEADER_LENGTHS = "length_bits"

# the rows (or provenance records) in one piece of written text: ~100 KB of CSV
_PIECE = 8192


class Trace(Record):
    """Finite, nondecreasing sequence of packet arrival ticks.

    ``arrivals[i]`` is the arrival tick of packet ``i + 1``.  When ``lengths``
    is present it has one positive entry per packet, in bits.  Values are
    ints; any other value (a str, a bool, a float) is refused by name.
    """

    __slots__ = ("arrivals", "lengths")

    def __init__(self, arrivals: Iterable[int], lengths: Iterable[int] | None = None):
        arrivals = _int_column(arrivals, "arrival tick {} at packet {}")
        if lengths is not None:
            lengths = _int_column(lengths, "length {} of packet {}")
        _check(arrivals, lengths)
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def _of(cls, arrivals: tuple[int, ...], lengths: tuple[int, ...] | None) -> Trace:
        """The trace of int columns that already meet the class's conditions, unchecked."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "arrivals", arrivals)
        object.__setattr__(trace, "lengths", lengths)
        return trace

    def __len__(self) -> int:
        return len(self.arrivals)

    def arrival(self, n: int) -> int:
        """Arrival tick of packet n; n = 0 is the virtual origin at tick 0."""
        if n == 0:
            return 0
        if not 1 <= n <= len(self.arrivals):
            raise IndexError(f"packet index {n} out of range 0..{len(self.arrivals)}")
        return self.arrivals[n - 1]


def _check(arrivals: Sequence[int], lengths: Sequence[int] | None) -> None:
    """Raise ValueError for the first condition of :class:`Trace` the int columns break."""
    # a(0) = 0 and a nondecreasing is one condition, 0 <= a(1) <= a(2) <= ...,
    # which Timsort checks in one run; a packet that breaks it is looked up on failure
    if sorted(arrivals) != list(arrivals) or arrivals and arrivals[0] < 0:
        n, prev, a = next(
            (n, prev, a)
            for n, (prev, a) in enumerate(zip(chain((0,), arrivals), arrivals), start=1)
            if a < prev
        )
        if a < 0:
            raise ValueError(f"arrival tick {a} at packet {n} is negative")
        raise ValueError(f"arrival ticks must be nondecreasing: packet {n} at {a} after {prev}")
    if lengths is None:
        return
    if len(lengths) != len(arrivals):
        raise ValueError(f"{len(lengths)} lengths for {len(arrivals)} packets")
    if min(lengths, default=1) <= 0:
        n, l = next((n, l) for n, l in enumerate(lengths, start=1) if l <= 0)
        raise ValueError(f"length {l} of packet {n} is not positive")


def _int_column(values: Iterable[int], naming: str) -> tuple[int, ...]:
    """The values as a tuple, with no Python code per value; raises for the first that is no int."""
    column = values if type(values) is tuple else tuple(values)
    if not set(map(type, column)) <= {int}:
        n, value = next((n, v) for n, v in enumerate(column, start=1) if type(v) is not int)
        raise ValueError(naming.format(repr(value), n) + " is not an int")
    return column


def read_trace_csv(source: str | TextIOBase) -> Trace:
    """Read a trace from a file path or a text stream, whole by one
    ``read()``: rows end at each line feed of the text read.  A path is opened
    with universal newlines, so CRLF and CR end its rows too.

    Format: optional header ``arrival_ticks[,length_bits]``, then one packet
    per line.  Ticks are nonnegative base-10 integers and must be
    nondecreasing; lengths, when the column is present, are positive
    base-10 integers.  Spaces around fields and blank lines are accepted.
    Rows have as many columns as the first, or two when the header names
    lengths.  A file with no packet rows is the empty trace, with lengths
    when its header names them.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                text = fh.read().strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{source}: {exc}") from None
    else:
        text = source.read().strip()
    head = text.partition("\n")[0]
    header_cols = [c.strip() for c in head.split(",")]
    header = len(header_cols) if header_cols[0] == CSV_HEADER_TICKS else 0
    if header and header_cols not in ([CSV_HEADER_TICKS], [CSV_HEADER_TICKS, CSV_HEADER_LENGTHS]):
        raise FormatError(f"unrecognized trace header {head.strip()!r}")
    # the text is split into rows only when its bulk decode fails; its
    # stripped, non-blank rows are then decoded in bulk once more, and a text
    # both refuse is read by the reference's row reader, to name its first
    # bad row.  It is given that text, neither a copy nor the source: a pipe reads once
    parsed = _bulk_integers(text[len(head) + 1 if header else 0:], header)
    if parsed is None:
        text = "\n".join(filter(None, map(str.strip, text.split("\n"))))
        parsed = _bulk_integers(text[len(head.strip()) + 1 if header else 0:], header, True)
    if parsed is None:
        from .reference import trace_from_csv_text

        return trace_from_csv_text(text)
    values, width = parsed
    del text, parsed  # each stage is dropped once the next holds the data
    # both decoders yield ints only, so the columns skip Trace's per-value pass
    arrivals, lengths = (values[::2], values[1::2]) if width == 2 else (values, None)
    del values
    try:
        _check(arrivals, lengths)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return Trace._of(tuple(arrivals), None if lengths is None else tuple(lengths))


# the digits, the sign and the padding int() takes in a field; "\n" ends a row
_NOT_SEPARATOR = str.maketrans("", "", "0123456789- \t\r\v\f")


def _bulk_integers(body: str, header: int, by_int: bool = False) -> tuple[list[int], int] | None:
    """The fields of the rows of ``body``, the text past its header, and their
    width, or None; ``by_int`` lets int() decode what JSON refuses."""
    # every other character (non-ASCII, "_", "+", a letter) stays in the
    # skeleton and fails the comparison
    skeleton = body.translate(_NOT_SEPARATOR)
    sep = "," if header == 2 else skeleton.partition("\n")[0]
    if sep not in ("", ",") or skeleton != (sep + "\n") * skeleton.count("\n") + sep:
        return None
    # Each field is now digits, "-" and padding between separators, and the
    # rows have the right width.  On such text the JSON number grammar
    # -?(0|[1-9][0-9]*), padded by space, tab or CR, is a subset of what int()
    # takes, with the same value: the decoder returns int()'s integers or
    # raises.  int(), which defines the rows, is tried second ("007", "\v"
    # padding), and only on the stripped, non-blank rows: a text with a blank
    # row, which both refuse, must not pay for a failed int() pass.  It takes
    # each field as a line of ASCII bytes, read as the str would be, so that
    # no string per field is held; the last "\n" keeps an empty last field
    try:
        return json.loads("[%s]" % body.replace("\n", ",")), len(sep) + 1
    except ValueError:
        if not by_int:
            return None
    try:
        return list(map(int, BytesIO((body.replace(",", "\n") + "\n").encode()))), len(sep) + 1
    except ValueError:
        return None


def _csv_pieces(trace: Trace) -> Iterator[str]:
    """The trace's CSV text: the header, then its rows in pieces of at most _PIECE rows."""
    lengths = trace.lengths
    yield f"{CSV_HEADER_TICKS}\n" if lengths is None else f"{CSV_HEADER_TICKS},{CSV_HEADER_LENGTHS}\n"
    for start in range(0, len(trace), _PIECE):
        values = ticks = trace.arrivals[start:start + _PIECE]
        if lengths is not None:
            values = [0] * (2 * len(ticks))
            values[::2], values[1::2] = ticks, lengths[start:start + _PIECE]
        yield (("%d\n" if lengths is None else "%d,%d\n") * len(ticks)) % tuple(values)


def write_trace_csv(trace: Trace) -> str:
    """The trace as CSV text: the header, then one row per packet."""
    return "".join(_csv_pieces(trace))
