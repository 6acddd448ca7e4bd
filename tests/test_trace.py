import io
from fractions import Fraction

import pytest

from maxplus_tc import (
    FormatError,
    MissingLengthsError,
    Trace,
    cumulative,
    interarrival,
    rational_from_json,
    rational_to_json,
    read_trace_csv,
    write_trace_csv,
)


class TestTraceConstruction:
    def test_valid(self):
        t = Trace((0, 0, 10), lengths=(1, 2, 3))
        assert t.num_packets == 3
        assert len(t) == 3

    def test_empty(self):
        assert Trace(()).num_packets == 0

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            Trace((5, 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Trace((-1, 3))

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


class TestInterarrival:
    def test_middle_pair(self):
        assert interarrival(Trace((10, 20, 30)), 1, 3) == 20

    def test_same_index(self):
        assert interarrival(Trace((10, 20, 30)), 2, 2) == 0

    def test_from_origin(self):
        assert interarrival(Trace((10, 20, 30)), 0, 1) == 10

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            interarrival(Trace((10,)), 0, 2)
        with pytest.raises(IndexError):
            interarrival(Trace((10, 20)), 2, 1)

    def test_telescoping(self):
        t = Trace((0, 0, 4, 9, 9, 30))
        for l in range(0, 7):
            for m in range(l, 7):
                for n in range(m, 7):
                    assert interarrival(t, l, n) == interarrival(t, l, m) + interarrival(t, m, n)


class TestCumulative:
    def test_at_zero(self):
        assert cumulative(Trace((0, 10), lengths=(100, 200)), 0) == 100

    def test_all_included(self):
        assert cumulative(Trace((0, 10), lengths=(100, 200)), 10) == 300

    def test_boundary_excluded(self):
        assert cumulative(Trace((0, 10), lengths=(100, 200)), 9) == 100

    def test_missing_lengths(self):
        with pytest.raises(MissingLengthsError):
            cumulative(Trace((0, 10)), 5)

    def test_empty_trace_is_zero(self):
        assert cumulative(Trace(()), 5) == 0

    def test_rational_time(self):
        assert cumulative(Trace((0, 10), lengths=(100, 200)), Fraction(19, 2)) == 100

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cumulative(Trace((0,), lengths=(1,)), -1)

    def test_step_function(self):
        t = Trace((2, 2, 5), lengths=(10, 20, 30))
        values = [cumulative(t, x) for x in range(0, 7)]
        assert values == [0, 0, 30, 30, 30, 60, 60]


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

    def test_file_path_roundtrip(self, tmp_path):
        t = Trace((1, 4), lengths=(8, 8))
        path = tmp_path / "t.csv"
        write_trace_csv(t, str(path))
        assert read_trace_csv(str(path)) == t


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
