import contextlib
import gc
import io
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxplus_tc import (
    FormatError,
    Trace,
    rational_from_json,
    rational_to_json,
    read_trace_csv,
    reference,
    write_trace_csv,
)
from maxplus_tc import trace as trace_module


class TestTraceConstruction:
    def test_valid(self):
        t = Trace((0, 0, 10), lengths=(1, 2, 3))
        assert len(t) == 3

    def test_empty(self):
        assert len(Trace(())) == 0

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            Trace((5, 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Trace((-1, 3))

    @pytest.mark.parametrize(
        "arrivals, lengths, message",
        [
            ((-1, 3), None, "arrival tick -1 at packet 1 is negative"),
            ((0, 4, -2), None, "arrival tick -2 at packet 3 is negative"),
            ((0, 4, 4, 3, -1), None, "arrival ticks must be nondecreasing: packet 4 at 3 after 4"),
            ((1, 2), (10,), "1 lengths for 2 packets"),
            ((1, 2), (10, 0), "length 0 of packet 2 is not positive"),
            ((1, 2, 3), (-4, 5, 0), "length -4 of packet 1 is not positive"),
            # the ticks are checked before the lengths
            ((2, 1), (0, 0), "arrival ticks must be nondecreasing: packet 2 at 1 after 2"),
            # a fall to exactly 0 is a fall, not a negative tick
            ((5, 0), None, "arrival ticks must be nondecreasing: packet 2 at 0 after 5"),
        ],
    )
    def test_invalid_messages(self, arrivals, lengths, message):
        with pytest.raises(ValueError) as info:
            Trace(arrivals, lengths=lengths)
        assert str(info.value) == message

    def test_int_tuples_are_stored_as_given(self):
        arrivals, lengths = (0, 5, 7), (1, 2, 3)
        t = Trace(arrivals, lengths=lengths)
        assert t.arrivals is arrivals and t.lengths is lengths
        assert Trace([0, 5, 7], lengths=[1, 2, 3]) == t

    @pytest.mark.parametrize("value", ["1_0", "\u0665", "0.5", True, 2.0, Fraction(2)])
    @pytest.mark.parametrize("column, message", [
        ("arrivals", "arrival tick {!r} at packet 2 is not an int"),
        ("lengths", "length {!r} of packet 2 is not an int"),
    ], ids=["arrivals", "lengths"])
    def test_values_other_than_ints_refused_by_name(self, column, message, value):
        columns = {"arrivals": [0, 5, 7], "lengths": [1, 2, 3]}
        columns[column][1] = value
        with pytest.raises(ValueError) as info:
            Trace(**columns)
        assert str(info.value) == message.format(value)

    def test_length_count_mismatch(self):
        with pytest.raises(ValueError):
            Trace((1, 2), lengths=(10,))

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            Trace((1, 2), lengths=(10, 0))

    def test_virtual_origin(self):
        t = Trace((7, 9))
        assert t.arrival(0) == 0
        assert t.arrival(1) == 7
        with pytest.raises(IndexError):
            t.arrival(3)


class TestCsv:
    def test_roundtrip_with_lengths(self):
        t = Trace((0, 0, 7), lengths=(64, 64, 1500))
        assert read_trace_csv(io.StringIO(write_trace_csv(t))) == t

    def test_roundtrip_without_lengths(self):
        t = Trace((3, 5, 5))
        assert read_trace_csv(io.StringIO(write_trace_csv(t))) == t

    def test_headerless(self):
        assert read_trace_csv(io.StringIO("1\n2\n3\n")) == Trace((1, 2, 3))

    def test_bad_column_count(self):
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO("1,2,3\n"))

    def test_mixed_columns(self):
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO("1,5\n2\n"))

    def test_non_integer(self):
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO("1.5\n"))

    @pytest.mark.parametrize("field", ["1_0", "+5", "\u0661\u0662"])
    def test_non_decimal_fields(self, field):
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO(f"{field}\n"))
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO(f"0,{field}\n"))

    def test_negative_tick_keeps_range_message(self):
        with pytest.raises(FormatError, match="arrival tick -5 at packet 1 is negative"):
            read_trace_csv(io.StringIO("-5\n"))

    def test_decreasing(self):
        with pytest.raises(FormatError):
            read_trace_csv(io.StringIO("5\n3\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("-5\n3\n", "arrival tick -5 at packet 1 is negative"),
            ("1\n2\n-3\n", "arrival tick -3 at packet 3 is negative"),
            ("0,5\n-1,5\n", "arrival tick -1 at packet 2 is negative"),
            ("1\n5\n3\n", "arrival ticks must be nondecreasing: packet 3 at 3 after 5"),
            ("5\n0\n", "arrival ticks must be nondecreasing: packet 2 at 0 after 5"),
            ("0,5\n1,0\n", "length 0 of packet 2 is not positive"),
            ("0,5\n1,-2\n", "length -2 of packet 2 is not positive"),
            ("0,5\n1\n", "row 2: inconsistent column count"),
            ("0\n1,5\n", "row 2: inconsistent column count"),
            ("0,5,6\n", "row 1: expected 1 or 2 columns, got 3"),
            ("0,5\n1,2,3\n", "row 2: expected 1 or 2 columns, got 3"),
            ("1 , x\n", "row 1: invalid literal for int() with base 10: 'x'"),
            ("1, x \n", "row 1: invalid literal for int() with base 10: 'x'"),
            ("2,\n", "row 1: invalid literal for int() with base 10: ''"),
            (",2\n", "row 1: invalid literal for int() with base 10: ''"),
            ("1.5\n", "row 1: invalid literal for int() with base 10: '1.5'"),
            ("1 2\n", "row 1: invalid literal for int() with base 10: '1 2'"),
            ("1_0\n", "row 1: fields must be ASCII base-10 integers, got '1_0'"),
            ("0,+5\n", "row 1: fields must be ASCII base-10 integers, got '0,+5'"),
            ("\u0661\n", "row 1: fields must be ASCII base-10 integers, got '\u0661'"),
            ("arrival_ticks,foo\n1\n", "unrecognized trace header 'arrival_ticks,foo'"),
            ("arrival_ticks,length_bits,x\n", "unrecognized trace header 'arrival_ticks,length_bits,x'"),
            # a malformed row is reported before a range error in an earlier row
            ("-1\nx\n", "row 2: invalid literal for int() with base 10: 'x'"),
            ("0,0\n1,x\n", "row 2: invalid literal for int() with base 10: 'x'"),
            # and rows are reported in file order, whatever the fault
            ("x\n1,2,3\n", "row 1: invalid literal for int() with base 10: 'x'"),
            ("0\n\n1_0\n2,3\n", "row 2: fields must be ASCII base-10 integers, got '1_0'"),
            ("-0, 00\t\n", "length 0 of packet 1 is not positive"),
            ("arrival_ticks,length_bits\n1\n", "row 1: inconsistent column count"),
        ],
    )
    def test_malformed_messages(self, text, message):
        for read in (read_trace_csv, reference.read_trace_csv_by_rows):
            with pytest.raises(FormatError) as info:
                read(io.StringIO(text))
            assert str(info.value) == message

    def test_separator_controls_around_a_field_rejected(self):
        # str.strip() would drop 0x1c-0x1f, int() does not take them as space
        with pytest.raises(FormatError) as info:
            read_trace_csv(io.StringIO("0,1\n1,\x1c5\n"))
        assert str(info.value) == (
            "row 2: fields must be ASCII base-10 integers, got '1,\\x1c5'"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "arrival_ticks\n",
            " arrival_ticks \n\n",
            "",
            "\n\r\n  \n",
        ],
    )
    def test_no_rows_is_empty_trace(self, text):
        trace = read_trace_csv(io.StringIO(text))
        assert trace == Trace(())
        assert trace.lengths is None

    def test_header_with_lengths_and_no_rows_keeps_lengths(self):
        for text in ("arrival_ticks,length_bits\n", " arrival_ticks , length_bits \r\n\n"):
            trace = read_trace_csv(io.StringIO(text))
            assert trace == Trace((), lengths=())
            assert trace.lengths == ()

    @pytest.mark.parametrize("lengths", [None, ()])
    def test_empty_trace_roundtrip(self, lengths):
        t = Trace((), lengths=lengths)
        assert read_trace_csv(io.StringIO(write_trace_csv(t))) == t

    def test_padding_blank_lines_and_crlf(self):
        text = " arrival_ticks , length_bits \r\n\r\n 1 , 5 \r\n\t2,\t6\r\n\n3 ,7"
        assert read_trace_csv(io.StringIO(text)) == Trace((1, 2, 3), lengths=(5, 6, 7))
        assert read_trace_csv(io.StringIO(" 4 \r\n\r\n5\t\n")) == Trace((4, 5))

    def test_header_names_ticks_only_rows_may_carry_lengths(self):
        assert read_trace_csv(io.StringIO("arrival_ticks\n1,5\n")) == Trace((1,), lengths=(5,))

    @pytest.mark.parametrize(
        "text",
        [
            "arrival_ticks,length_bits\n1\n2\n",
            "arrival_ticks , length_bits\r\n\r\n 7 \r\n",
            "arrival_ticks,length_bits\n1\n2,5\n",
        ],
    )
    def test_header_naming_lengths_binds_the_rows(self, text):
        with pytest.raises(FormatError) as info:
            read_trace_csv(io.StringIO(text))
        assert str(info.value) == "row 1: inconsistent column count"

    @pytest.mark.parametrize(
        "text, trace",
        [
            ("007\n010\n", Trace((7, 10))),
            ("1\v,\f5\n", Trace((1,), lengths=(5,))),
            ("-0, 01\t\n", Trace((0,), lengths=(1,))),
            ("0\r,1\n", Trace((0,), lengths=(1,))),
        ],
    )
    def test_fields_the_json_grammar_refuses_read_as_int_does(self, text, trace):
        assert read_trace_csv(io.StringIO(text)) == trace

    @pytest.mark.parametrize("text", ["1\n2\r3\r", "1\n,2\r3\n,4\r", "0\r5\n\r", "0\r,\n1\r"])
    def test_a_stream_reads_as_the_text_its_read_returns(self, text):
        # a stream that ends lines at "\r" only returns its text untranslated,
        # and its rows end at the line feeds of that text
        for read in (read_trace_csv, reference.read_trace_csv_by_rows):
            assert _read_outcome(read, text, newline="\r") == _outcome(read, io.StringIO(text))

    @pytest.mark.parametrize("lengths", [None, (2**63, 1, 2**70)])
    def test_ticks_and_lengths_beyond_int64_roundtrip(self, lengths):
        t = Trace((2**63 - 1, 2**63, 2**64 + 7), lengths=lengths)
        text = write_trace_csv(t)
        assert text.splitlines()[1:] == [
            ",".join(map(str, row))
            for row in (zip(t.arrivals, lengths) if lengths else zip(t.arrivals))
        ]
        assert read_trace_csv(io.StringIO(text)) == t

    def test_empty_trace_writes_header_only(self):
        assert write_trace_csv(Trace(())) == "arrival_ticks\n"
        assert write_trace_csv(Trace((), lengths=())) == "arrival_ticks,length_bits\n"

    def test_written_text(self):
        assert write_trace_csv(Trace((0, 0, 7), lengths=(64, 64, 1500))) == (
            "arrival_ticks,length_bits\n0,64\n0,64\n7,1500\n"
        )
        assert write_trace_csv(Trace((3, 5, 5))) == "arrival_ticks\n3\n5\n5\n"

    def test_file_path_roundtrip(self, tmp_path):
        t = Trace((1, 4), lengths=(8, 8))
        path = tmp_path / "t.csv"
        path.write_text(write_trace_csv(t), encoding="utf-8")
        assert read_trace_csv(str(path)) == t


PADDING = " \t\r\v\f\x1c\x1d\x1e\x1f"
HEADERS = [None, "arrival_ticks", "arrival_ticks,length_bits", " arrival_ticks\t,  length_bits "]
ODD_HEADERS = [
    "arrival_ticks,foo", "arrival_ticks,length_bits,x", "arrival_ticks,", "length_bits,arrival_ticks",
    " arrival_ticks , foo\t",
]
ODD_FIELDS = [
    "", "-", "--1", "-0", "00", "1_0", "+5", "\u0661", "\uff11", "x", "1.5", "1e3", "1 2",
    "0x1", "NaN", "Infinity", "[1]", "true", str(2**64), str(-(2**70)),
]
values = st.one_of(
    st.integers(0, 40),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(2**64, 2**80),
)


@st.composite
def csv_texts(draw):
    """CSV text near the format: rows of one to three columns, with padding,
    blank lines, leading zeros, signs, odd fields and headers mixed in.  One
    draw per text sets how often a part is spoiled, so that clean texts,
    which the bulk path reads, are common too."""
    rarity = draw(st.sampled_from([2, 8, 40, 10**6]))

    def spoiled():
        return draw(st.integers(0, rarity)) == 0

    n = draw(st.integers(0, 6))
    width = draw(st.sampled_from([1, 2, 3]))
    ticks = draw(st.lists(values, min_size=n, max_size=n))
    if not spoiled():
        ticks.sort()
    lengths = draw(st.lists(values, min_size=n, max_size=n))
    header = draw(st.sampled_from(ODD_HEADERS if spoiled() else HEADERS))
    lines = draw(st.lists(st.text(PADDING, max_size=2), max_size=2))  # leading blank lines
    lines += [] if header is None else [header]
    for tick, bits in zip(ticks, lengths):
        row_width = draw(st.sampled_from([1, 2, 3])) if spoiled() else width
        fields = []
        for value in (tick, bits, bits)[:row_width]:
            text = str(value)
            if spoiled():
                text = draw(st.sampled_from(ODD_FIELDS + ["0" + text, "-" + text]))
            pad = st.text(PADDING if spoiled() else " \t\r", max_size=2)
            fields.append(draw(pad) + text + draw(pad))
        lines.append(",".join(fields))
        if spoiled():
            lines.append(draw(st.text(PADDING, max_size=2)))  # a blank line
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, source):
    """The trace read from the source, or the message of the error raised."""
    try:
        return read(source)
    except FormatError as exc:
        return str(exc)


def _read_outcome(read, text, newline="\n"):
    """The outcome of reading the text as a stream with this newline mode."""
    source = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
    return _outcome(read, source)


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_same_trace_or_same_message(self, text):
        expected = _read_outcome(reference.read_trace_csv_by_rows, text)
        assert _read_outcome(read_trace_csv, text) == expected

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts())
    def test_same_from_a_path(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        expected = _outcome(reference.read_trace_csv_by_rows, str(path))
        assert _outcome(read_trace_csv, str(path)) == expected

    @pytest.mark.parametrize(
        "text, trace",
        [
            ("arrival_ticks,length_bits\r\n1,5\r\n2,6\r\n", Trace((1, 2), lengths=(5, 6))),
            ("arrival_ticks\r1\r2\r", Trace((1, 2))),
            ("1,5\n2,6", Trace((1, 2), lengths=(5, 6))),
            ("\n \n\t\narrival_ticks\n7\n", Trace((7,))),
            ("arrival_ticks,length_bits\n", Trace((), lengths=())),
            ("arrival_ticks", Trace(())),
            ("arrival_ticks\n1,5\n2,6\n", Trace((1, 2), lengths=(5, 6))),
            ("arrival_ticks\n\n 1,5\n", Trace((1,), lengths=(5,))),
            ("arrival_ticks,length_bits \n\n10,5\n", Trace((10,), lengths=(5,))),
            ("1\n\n2\n \n3\n\n", Trace((1, 2, 3))),
            ("\x1c1\x1c\n2\n", Trace((1, 2))),
            ("", Trace(())),
        ],
    )
    def test_path_line_ends_blank_lines_and_headers(self, tmp_path, text, trace):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert read_trace_csv(str(path)) == trace
        assert reference.read_trace_csv_by_rows(str(path)) == trace

    @pytest.mark.parametrize("odd", ODD_FIELDS + ["007", "0"] + [f"{c}7{c}" for c in PADDING])
    def test_one_odd_field_in_a_clean_file(self, odd):
        for header in HEADERS:
            for row in range(3):
                for col in range(2):
                    rows = [["1", "10"], ["2", "20"], ["3", "30"]]
                    rows[row][col] = odd
                    lines = ([header] if header else []) + [",".join(r) for r in rows]
                    text = "\n".join(lines) + "\n"
                    assert _read_outcome(read_trace_csv, text) == _read_outcome(
                        reference.read_trace_csv_by_rows, text
                    )


def _two_column_text(rows):
    lengths = [64 + i * 37 % 1437 for i in range(rows)]
    return write_trace_csv(Trace(range(0, 10 * rows, 10), lengths=lengths))


class TestReaderCost:
    def test_peak_memory_at_1e5_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(_two_column_text(10**5))
        path = str(path)
        tracemalloc.start()
        try:
            trace = read_trace_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 10**5
        assert peak < 12 * 2**20

    @staticmethod
    def _line_events(source_of):
        """The lines run while reading 10**3 and 10**4 rows, each given to
        the reader as ``source_of(text)`` returns it."""
        # every Python frame a row might start runs lines, so equal line
        # counts also mean no frame per row.  The collector is off, as in
        # the command line, so that no gc callback (hypothesis installs one)
        # runs at a random point
        def count(rows):
            seen = []

            def record(frame, kind, arg):
                seen.append(kind)
                return record  # trace the lines of each frame

            source = source_of(_two_column_text(rows))
            gc.disable()
            sys.settrace(record)
            try:
                trace = read_trace_csv(source)
            finally:
                sys.settrace(None)
                gc.enable()
            assert len(trace) == rows
            return seen.count("line")

        return count(10**3), count(10**4)

    def test_no_python_code_per_row(self):
        first, second = self._line_events(io.StringIO)
        assert first == second

    @pytest.mark.parametrize("blank_row", ["", "\n \t"], ids=["clean", "blank row"])
    def test_no_python_code_per_row_from_a_path(self, tmp_path, blank_row):
        # a path is read by one read(), so its UTF-8 decoder runs one Python
        # frame whatever the rows.  A blank row fails the first bulk decode
        # and is dropped before the second
        def write(text):
            path = tmp_path / f"{len(text)}.csv"
            middle = text.index("\n", len(text) // 2)
            path.write_text(text[:middle] + blank_row + text[middle:])
            return str(path)

        first, second = self._line_events(write)
        assert first == second

    @pytest.mark.parametrize("text, decodes", [
        (_two_column_text(10), 1), ("1\n\n 2\n", 2), ("1\n007\n9\n", 2), ("1\nx\n", 2),
    ], ids=["clean", "blank row", "rows", "refused"])
    def test_a_stream_and_a_path_decode_alike(self, tmp_path, monkeypatch, text, decodes):
        # one read() gives both the same text, so both make the same bulk
        # decodes before any row loop ("007" is read there, "x" refused)
        calls = []

        def spy(*args):
            calls.append(args)
            return bulk(*args)

        def calls_reading(source):
            calls.clear()
            with contextlib.suppress(FormatError):
                read_trace_csv(source)
            return list(calls)

        bulk = trace_module._bulk_integers
        monkeypatch.setattr(trace_module, "_bulk_integers", spy)
        path = tmp_path / "t.csv"
        path.write_text(text)
        by_path = calls_reading(str(path))
        assert len(by_path) == decodes
        assert calls_reading(io.StringIO(text)) == by_path

    @pytest.mark.parametrize("text", [_two_column_text(100), "1\n007\n9\n"], ids=["bulk", "rows"])
    @pytest.mark.parametrize("by_path", [True, False], ids=["path", "stream"])
    def test_decoded_ints_skip_the_per_value_pass(self, tmp_path, monkeypatch, text, by_path):
        # both decoders yield ints only; the trace read equals the one the
        # checking constructor builds from its columns
        calls = []
        monkeypatch.setattr(trace_module, "_int_column", lambda *args: calls.append(args))
        path = tmp_path / "t.csv"
        path.write_text(text)
        trace = read_trace_csv(str(path) if by_path else io.StringIO(text))
        assert calls == []
        monkeypatch.undo()
        lengths = None if trace.lengths is None else list(trace.lengths)
        assert trace == Trace(list(trace.arrivals), lengths=lengths)


class TestRationalJson:
    def test_roundtrip(self):
        x = Fraction(-6, 4)
        assert rational_from_json(rational_to_json(x)) == x
        assert rational_to_json(x) == {"num": -3, "den": 2}

    def test_bare_int(self):
        assert rational_from_json(7) == 7

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            rational_from_json("x")
        with pytest.raises(FormatError):
            rational_from_json({"num": 1})
        with pytest.raises(FormatError):
            rational_from_json({"num": 1, "den": 0})

    @pytest.mark.parametrize(
        "value, message",
        [
            # a float's binary value, such as 3602879701896397/36028797018963968 for 0.1
            (0.1, "rational 0.1 is not a Fraction or an int"),
            (True, "rational True is a bool, not a Fraction or an int"),
        ],
    )
    def test_encoding_refuses_floats_and_bools(self, value, message):
        with pytest.raises(ValueError) as exc:
            rational_to_json(value)
        assert str(exc.value) == message
