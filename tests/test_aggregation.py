import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus_tc import (
    InconsistentInputError,
    Lcg64,
    PacketOrigin,
    Trace,
    aggregate_eq1,
    aggregation,
    merge_traces,
    merge_traces_with_provenance,
    reference,
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
            assert len(merge_traces(traces)) == sum(len(t) for t in traces)

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


@st.composite
def flow_sets(draw):
    """1-6 flows on a few ticks, so ties across flows are common; empty
    flows; all with lengths or none; ticks shifted by 0 or 2^63."""
    with_lengths = draw(st.booleans())
    shift = draw(st.sampled_from([0, 2**63]))
    traces = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ticks = sorted(draw(st.lists(st.integers(min_value=0, max_value=5), max_size=8)))
        lengths = st.lists(st.integers(1, 2**70), min_size=len(ticks), max_size=len(ticks))
        traces.append(Trace(
            tuple(t + shift for t in ticks),
            tuple(draw(lengths)) if with_lengths else None,
        ))
    return traces


class TestReferenceMerge:
    """The stable-sort merge against the tuple-sort reference, whole results."""

    @given(flow_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_sort(self, traces):
        merged, origins = merge_traces_with_provenance(traces)
        assert (merged, origins) == reference.merge_with_provenance_by_tuples(traces)
        # the merge stores its columns unchecked; the checking constructor accepts them
        assert merge_traces(traces) == Trace(merged.arrivals, merged.lengths)

    def test_ties_empty_flows_lengths_and_big_ticks(self):
        big = 2**63
        traces = [
            Trace((big, big + 2), lengths=(1, 2)),
            Trace((), lengths=()),
            Trace((big, big, big + 1), lengths=(3, 4, 5)),
            Trace((big + 2,), lengths=(6,)),
        ]
        merged, origins = merge_traces_with_provenance(traces)
        assert (merged, origins) == reference.merge_with_provenance_by_tuples(traces)
        assert merged == Trace((big, big, big, big + 1, big + 2, big + 2), (1, 3, 4, 5, 2, 6))
        assert origins == tuple(
            map(PacketOrigin, (0, 2, 2, 2, 0, 3), (1, 1, 2, 3, 2, 1))
        )

    @pytest.mark.parametrize("with_lengths", [False, True], ids=["ticks", "lengths"])
    @pytest.mark.parametrize("flows", [[()], [(), ()], [(5,)], [(), (5,), ()]],
                             ids=["one-empty", "two-empty", "one-packet", "one-of-three"])
    def test_zero_and_one_packet_aggregates(self, flows, with_lengths):
        # no gather by itemgetter here: made with one index it returns a bare
        # value, and with none it cannot be made
        traces = [Trace(t, lengths=(7,) * len(t) if with_lengths else None) for t in flows]
        merged, origins = merge_traces_with_provenance(traces)
        assert (merged, origins) == reference.merge_with_provenance_by_tuples(traces)
        assert type(merged.arrivals) is tuple and type(origins) is tuple
        assert type(merged.lengths) is (tuple if with_lengths else type(None))
        merged, order, gather = aggregation._merge(traces)
        text = "".join(aggregation._provenance_pieces(traces, order, gather))
        packets = [{"flow": o.flow, "index": o.index} for o in origins]
        assert text == json.dumps({"packets": packets}, indent=2) + "\n"


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
                budget -= len(traces[-1])
            merged = merge_traces(traces)
            for n in range(len(merged) + 1):
                assert aggregate_eq1(traces, n) == merged.arrival(n)

    def test_leaves_no_cyclic_garbage(self):
        """The suite calls it per packet; with the collector off, as in the
        CLI process, cyclic garbage would stay until exit."""
        traces = [Trace((1, 3, 5)), Trace((2, 4)), Trace((0, 4))]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert [aggregate_eq1(traces, n) for n in range(8)] == [0, 0, 1, 2, 3, 4, 4, 5]
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
