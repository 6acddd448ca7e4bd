import pytest

from maxplus_tc import (
    InconsistentInputError,
    Lcg64,
    PacketOrigin,
    Trace,
    aggregate_eq1,
    merge_traces,
    merge_traces_with_provenance,
)


def _random_trace(rng, max_packets, with_lengths=False):
    count = rng.randint(0, max_packets)
    arrivals = sorted(rng.randint(0, 15) for _ in range(count))
    lengths = tuple(rng.randint(1, 99) for _ in range(count)) if with_lengths else None
    return Trace(tuple(arrivals), lengths=lengths)


class TestMerge:
    def test_sorted_interleave(self):
        merged = merge_traces([Trace((1, 3, 5)), Trace((2, 4))])
        assert merged.arrivals == (1, 2, 3, 4, 5)

    def test_concurrent_preserved(self):
        merged = merge_traces([Trace((0, 0)), Trace((0,))])
        assert merged.arrivals == (0, 0, 0)

    def test_single_trace_identity(self):
        t = Trace((0, 7, 7))
        assert merge_traces([t]) == t

    def test_lengths_carried(self):
        merged = merge_traces(
            [Trace((1, 3), lengths=(10, 30)), Trace((2,), lengths=(20,))]
        )
        assert merged.lengths == (10, 20, 30)

    def test_mixed_length_presence_rejected(self):
        with pytest.raises(InconsistentInputError):
            merge_traces([Trace((1,), lengths=(5,)), Trace((2,))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([])

    def test_empty_traces(self):
        assert merge_traces_with_provenance([Trace(()), Trace(())]) == (Trace(()), ())
        merged, origins = merge_traces_with_provenance(
            [Trace((), lengths=()), Trace((), lengths=())]
        )
        assert merged.lengths == () and merged.arrivals == () and origins == ()
        merged, origins = merge_traces_with_provenance([Trace(()), Trace((4, 6), lengths=None)])
        assert merged == Trace((4, 6))
        assert origins == (PacketOrigin(flow=1, index=1), PacketOrigin(flow=1, index=2))
        merged, origins = merge_traces_with_provenance(
            [Trace((3,), lengths=(9,)), Trace((), lengths=())]
        )
        assert merged == Trace((3,), lengths=(9,)) and origins == (PacketOrigin(0, 1),)

    def test_tie_break_by_flow_then_index(self):
        merged, origins = merge_traces_with_provenance(
            [Trace((5, 5)), Trace((5,))]
        )
        assert merged.arrivals == (5, 5, 5)
        assert origins == (
            PacketOrigin(flow=0, index=1),
            PacketOrigin(flow=0, index=2),
            PacketOrigin(flow=1, index=1),
        )

    def test_size_is_sum(self):
        rng = Lcg64(11)
        for _ in range(50):
            traces = [_random_trace(rng, 10) for _ in range(rng.randint(1, 4))]
            assert merge_traces(traces).num_packets == sum(t.num_packets for t in traces)

    def test_tick_multiset_invariant_under_permutation(self):
        rng = Lcg64(12)
        for _ in range(50):
            traces = [_random_trace(rng, 8) for _ in range(3)]
            base = merge_traces(traces)
            assert merge_traces(traces[::-1]).arrivals == base.arrivals
            assert merge_traces([traces[1], traces[2], traces[0]]).arrivals == base.arrivals

    def test_merge_is_associative_on_ticks(self):
        rng = Lcg64(13)
        for _ in range(50):
            a, b, c = (_random_trace(rng, 8) for _ in range(3))
            nested = merge_traces([merge_traces([a, b]), c])
            assert nested.arrivals == merge_traces([a, b, c]).arrivals


class TestCompositionFormula:
    def test_worked_example(self):
        assert aggregate_eq1([Trace((1, 3, 5)), Trace((2, 4))], 3) == 3

    def test_zero_index(self):
        assert aggregate_eq1([Trace((1, 3, 5)), Trace((2, 4))], 0) == 0

    def test_concurrent(self):
        assert aggregate_eq1([Trace((0, 0)), Trace((0,))], 3) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            aggregate_eq1([Trace((1,))], 2)
        with pytest.raises(IndexError):
            aggregate_eq1([Trace((1,))], -1)

    def test_empty_flow_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_eq1([], 0)

    def test_equals_merge_at_every_index(self):
        rng = Lcg64(14)
        for _ in range(100):
            flows = rng.randint(1, 3)
            traces = []
            budget = 12
            for i in range(flows):
                take = rng.randint(0, budget)
                traces.append(_random_trace(rng, take))
                budget -= traces[-1].num_packets
            merged = merge_traces(traces)
            for n in range(merged.num_packets + 1):
                assert aggregate_eq1(traces, n) == merged.arrival(n)
