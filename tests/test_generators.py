import hashlib
from fractions import Fraction
from itertools import product

import pytest

from maxplus_tc import (
    LambdaNuModel,
    Lcg64,
    Trace,
    TSpecModel,
    WindowMode,
    check_lambda_nu,
    check_tspec,
    fit_lambda_nu,
    fit_tspec,
    gen_extremal_lambda_nu,
    gen_jittered,
    gen_periodic,
    gen_tspec_extremal,
    merge_traces,
    reference,
    report_to_json,
    suite,
)

F = Fraction


class TestLcg64:
    def test_matches_reference_recurrence(self):
        # independent reimplementation of the published constants
        a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
        state = 42
        expected = []
        for _ in range(6):
            state = (a * state + c) & mask
            expected.append(state >> 32)
        rng = Lcg64(42)
        assert [rng.next_u32() for _ in range(6)] == expected

    def test_determinism(self):
        assert [Lcg64(9).next_u32() for _ in range(3)] == [
            Lcg64(9).next_u32() for _ in range(3)
        ]

    def test_randint_bounds(self):
        rng = Lcg64(3)
        draws = [rng.randint(2, 5) for _ in range(200)]
        assert set(draws) == {2, 3, 4, 5}

    def test_interleaved_draws_are_pinned(self):
        # randint advances the state itself; the sequence must not change
        rng = Lcg64(2718281828)
        draws = []
        for k in range(1000):
            if k % 3 == 0:
                draws.append(rng.randint(-k, 7 * k + 3))
            elif k % 3 == 1:
                draws.append(rng.next_u32())
            else:
                draws.append(rng.choice("abcdefg"))
        assert draws[:6] == [1, 410444360, "e", 3, 2575887862, "e"]
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
            "2af4027378d2011e0536f56255998088d2599aa4f316f3b69b046d958740b61f"
        )

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 99), (1, 1000), (-7, 3), (5, 2**40)])
    @pytest.mark.parametrize("k", [0, 1, 2, 17, 300])
    def test_randints_are_k_randint_calls(self, lo, hi, k):
        bulk, single = Lcg64(31337 + k), Lcg64(31337 + k)
        assert bulk.randints(lo, hi, k) == [single.randint(lo, hi) for _ in range(k)]
        assert bulk.state == single.state
        assert type(bulk.randints(lo, hi, 3)[0]) is int

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_randints_refuse_an_empty_range_as_randint_does(self, k):
        rng = Lcg64(4)
        with pytest.raises(ValueError, match=r"^empty range \[3, 2\]$"):
            rng.randint(3, 2)
        with pytest.raises(ValueError, match=r"^empty range \[3, 2\]$"):
            rng.randints(3, 2, k)
        assert rng.state == Lcg64(4).state


class TestGenPeriodic:
    def test_zero_phase(self):
        assert gen_periodic(10, 0, 3).arrivals == (0, 10, 20)

    def test_with_phase(self):
        assert gen_periodic(10, 5, 2).arrivals == (5, 15)

    def test_fit_recovers_rate(self):
        fit = fit_lambda_nu(gen_periodic(10, 0, 100), nu=F(0))
        assert fit.model.lam == F(1, 10)

    def test_conforms(self):
        trace = gen_periodic(7, 3, 50)
        assert check_lambda_nu(trace, LambdaNuModel(F(1, 7), F(0))).conforms

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_periodic(0, 0, 3)
        with pytest.raises(ValueError):
            gen_periodic(5, -1, 3)


class TestGenExtremal:
    def test_integer_burst(self):
        trace = gen_extremal_lambda_nu(LambdaNuModel(F(1), F(2)), 5)
        assert trace.arrivals == (0, 0, 0, 1, 2)

    def test_zero_burst_is_periodic(self):
        trace = gen_extremal_lambda_nu(LambdaNuModel(F(1, 10), F(0)), 3)
        assert trace.arrivals == (0, 10, 20)

    def test_opening_burst_size(self):
        for nu in (F(0), F(1), F(5, 2), F(4)):
            trace = gen_extremal_lambda_nu(LambdaNuModel(F(1, 3), nu), 12)
            at_zero = sum(1 for a in trace.arrivals if a == 0)
            assert at_zero == int(nu) + 1

    def test_fit_recovers_integer_burst(self):
        rng = Lcg64(100)
        for _ in range(60):
            model = LambdaNuModel(
                F(rng.randint(1, 8), rng.randint(1, 40)), F(rng.randint(0, 9))
            )
            count = int(model.nu) + 2 + rng.randint(0, 30)
            trace = gen_extremal_lambda_nu(model, count)
            assert fit_lambda_nu(trace, lam=model.lam).model.nu == model.nu

    def test_conforms_even_off_grid(self):
        rng = Lcg64(101)
        for _ in range(80):
            model = LambdaNuModel(
                F(rng.randint(1, 9), rng.randint(1, 20)),
                F(rng.randint(0, 10), rng.randint(1, 4)),
            )
            trace = gen_extremal_lambda_nu(model, rng.randint(0, 60))
            slow = reference.check_lambda_nu_via_convolution(trace, model)
            assert slow.conforms
            assert report_to_json(check_lambda_nu(trace, model)) == report_to_json(slow)

    def test_off_grid_times_round_up(self):
        # rate 2/3: exact spacings 1.5, 3, 4.5 land between ticks
        trace = gen_extremal_lambda_nu(LambdaNuModel(F(2, 3), F(0)), 4)
        assert trace.arrivals == (0, 2, 4, 6)


    def test_matches_greedy_oracle_randomized(self):
        rng = Lcg64(8086)
        for _ in range(150):
            denominator = rng.choice((1, rng.randint(2, 50), rng.randint(10**9, 10**12)))
            model = LambdaNuModel(
                F(rng.randint(1, 9), denominator),
                F(rng.randint(0, 12), rng.randint(1, 4)),
            )
            count = rng.randint(0, 40)
            assert gen_extremal_lambda_nu(model, count) == reference.extremal_arrivals(
                model, count
            )


class TestGenTspecExtremal:
    def test_open_mode_bursts_at_interval(self):
        tspec = TSpecModel(F(10), 2, WindowMode.OPEN)
        assert gen_tspec_extremal(tspec, 4).arrivals == (0, 0, 10, 10)

    def test_single_packet_budget_is_periodic(self):
        tspec = TSpecModel(F(10), 1, WindowMode.OPEN)
        assert gen_tspec_extremal(tspec, 3).arrivals == (0, 10, 20)

    def test_closed_mode_spaces_past_boundary(self):
        tspec = TSpecModel(F(10), 2, WindowMode.CLOSED)
        assert gen_tspec_extremal(tspec, 4).arrivals == (0, 0, 11, 11)

    @pytest.mark.parametrize("mode", [WindowMode.CLOSED, WindowMode.OPEN], ids=lambda m: m.value)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("tau", [F(1, 2), F(5, 2), F(7, 3), F(10)], ids=str)
    def test_any_interval_saturates_at_the_least_spacing(self, tau, k, mode):
        tspec = TSpecModel(tau, k, mode)
        trace = gen_tspec_extremal(tspec, 3 * k)
        assert check_tspec(trace, tspec).conforms
        assert reference.check_tspec_pairwise(trace, tspec).conforms
        assert fit_tspec(trace, tau, mode).model.k_max == k
        # the second burst one tick earlier shares a window with the first
        earlier = list(trace.arrivals)
        earlier[k:2 * k] = [a - 1 for a in earlier[k:2 * k]]
        assert not check_tspec(Trace(earlier), tspec).conforms
        assert not reference.check_tspec_pairwise(Trace(earlier), tspec).conforms

    @pytest.mark.parametrize("mode", [WindowMode.CLOSED, WindowMode.OPEN], ids=lambda m: m.value)
    def test_budget_past_the_count_matches_the_reference(self, mode):
        # one burst of every packet, however far past 2**63 the budget is
        tspec = TSpecModel(F(5, 2), 10**20, mode)
        for count in range(5):
            assert gen_tspec_extremal(tspec, count) == reference.tspec_burst_arrivals(tspec, count)

    def test_conforms_in_own_mode(self):
        rng = Lcg64(200)
        for _ in range(60):
            tspec = TSpecModel(
                F(rng.randint(1, 30)),
                rng.randint(1, 5),
                rng.choice((WindowMode.CLOSED, WindowMode.OPEN)),
            )
            trace = gen_tspec_extremal(tspec, rng.randint(0, 60))
            assert check_tspec(trace, tspec).conforms

    def test_saturates_budget(self):
        tspec = TSpecModel(F(10), 3, WindowMode.OPEN)
        trace = gen_tspec_extremal(tspec, 12)
        report = check_tspec(trace, tspec)
        assert report.conforms and report.tight_pairs


class TestGenJittered:
    def test_zero_jitter_is_periodic(self):
        trace, fitted = gen_jittered(10, 0, 1234, 3)
        assert trace.arrivals == (0, 10, 20)
        assert fitted.lam == F(1, 10)
        assert fitted.nu == 0

    def test_same_seed_same_trace(self):
        a, _ = gen_jittered(10, 5, 77, 50)
        b, _ = gen_jittered(10, 5, 77, 50)
        assert a == b

    def test_different_seed_differs(self):
        a, _ = gen_jittered(10, 9, 1, 50)
        b, _ = gen_jittered(10, 9, 2, 50)
        assert a != b

    def test_matches_independent_lcg(self):
        a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
        state, jitter, period = 42 & mask, 5, 10
        expected = []
        for n in range(1, 6):
            state = (a * state + c) & mask
            expected.append((n - 1) * period + (state >> 32) % (jitter + 1))
        trace, _ = gen_jittered(period, jitter, 42, 5)
        assert trace.arrivals == tuple(sorted(expected))

    def test_fitted_model_conforms(self):
        rng = Lcg64(300)
        for _ in range(60):
            period = rng.randint(1, 40)
            trace, fitted = gen_jittered(
                period, rng.randint(0, period - 1), rng.next_u32(), rng.randint(0, 80)
            )
            assert check_lambda_nu(trace, fitted).conforms

    def test_model_is_the_least_burst_at_the_nominal_rate(self):
        # jitter below the period keeps each packet in its own period, so the
        # ticks come out strictly increasing with no sort, and the envelope is
        # the pairwise least burst at 1/period, not just one the trace fits
        for period in range(1, 9):
            for jitter, count in product(range(period), (0, 1, 2, 25)):
                trace, fitted = gen_jittered(period, jitter, 10 * period + jitter, count)
                assert all(map(int.__lt__, trace.arrivals, trace.arrivals[1:]))
                assert fitted == reference.fit_lambda_nu_pairwise(trace, lam=F(1, period)).model

    def test_conservative_envelope(self):
        # jitter below the period always fits burst allowance 2 at the nominal rate
        rng = Lcg64(301)
        for _ in range(40):
            period = rng.randint(2, 30)
            trace, _ = gen_jittered(
                period, rng.randint(1, period - 1), rng.next_u32(), rng.randint(0, 60)
            )
            assert check_lambda_nu(trace, LambdaNuModel(F(1, period), F(2))).conforms

    def test_jitter_bound_validated(self):
        with pytest.raises(ValueError):
            gen_jittered(10, 10, 0, 5)


def _valid_as_checked(trace):
    """The trace is what the checked constructor makes of its own columns,
    and each column is a tuple of exact ints."""
    assert Trace(trace.arrivals, trace.lengths) == trace
    for column in (trace.arrivals, trace.lengths or ()):
        assert type(column) is tuple and set(map(type, column)) <= {int}


MODES = (WindowMode.CLOSED, WindowMode.OPEN)


class TestUncheckedBuildsAreValid:
    """The generators and the suite's trace builders store their columns
    without Trace's checks; over a small scope, exhaustively, what each
    stores passes them."""

    def test_periodic(self):
        for period, phase, count in product(range(1, 5), range(4), range(7)):
            trace = gen_periodic(period, phase, count)
            _valid_as_checked(trace)
            assert trace == reference.periodic_arrivals(period, phase, count)

    def test_tspec_bursts(self):
        for tau, k, mode, count in product((F(1), F(5, 2), F(3)), range(1, 4), MODES, range(8)):
            tspec = TSpecModel(tau, k, mode)
            trace = gen_tspec_extremal(tspec, count)
            _valid_as_checked(trace)
            assert trace == reference.tspec_burst_arrivals(tspec, count)

    def test_extremal(self):
        rates = [F(p, q) for p, q in product(range(1, 4), range(1, 5))]
        bursts = [F(r, s) for r, s in product(range(4), range(1, 4))]
        for lam, nu, count in product(rates, bursts, range(13)):
            _valid_as_checked(gen_extremal_lambda_nu(LambdaNuModel(lam, nu), count))

    def test_jittered(self):
        for seed in range(51):
            for period, jitter, count in ((1, 0, 5), (7, 6, 30), (10, seed % 10, seed)):
                _valid_as_checked(gen_jittered(period, jitter, seed, count)[0])

    def test_builders_match_their_references_beyond_the_scope(self):
        rng = Lcg64(6502)
        for _ in range(100):
            period, phase, count = rng.randint(1, 10**6), rng.randint(0, 10**9), rng.randint(0, 60)
            assert gen_periodic(period, phase, count) == reference.periodic_arrivals(
                period, phase, count
            )
            tau = F(rng.randint(1, 200), rng.choice((1, rng.randint(1, 9))))
            tspec = TSpecModel(tau, rng.randint(1, 12), rng.choice(MODES))
            assert gen_tspec_extremal(tspec, count) == reference.tspec_burst_arrivals(tspec, count)

    # the suite's builders, over 1,000 seeds each

    def test_suite_arbitrary_traces(self):
        for seed in range(1000):
            for with_lengths in (False, True):
                trace = suite._arbitrary_trace(Lcg64(seed), seed % 60, with_lengths)
                _valid_as_checked(trace)
                assert (trace.lengths is not None) == with_lengths

    def test_suite_thinning_keeps_the_packets_drawn_below_the_share(self):
        for seed in range(1000):
            rng = Lcg64(seed)
            trace = suite._arbitrary_trace(rng, 60, with_lengths=seed % 2 == 0)
            twin = Lcg64(rng.state)
            thinned = suite._thin(rng, trace)
            _valid_as_checked(thinned)
            kept = [i for i in range(len(trace)) if twin.randint(0, 99) < suite._KEEP_PERCENT]
            assert thinned.arrivals == tuple(trace.arrivals[i] for i in kept)
            if trace.lengths is not None:
                assert thinned.lengths == tuple(trace.lengths[i] for i in kept)
            assert rng.state == twin.state

    def test_suite_shift(self):
        for seed in range(1000):
            rng = Lcg64(seed)
            trace = suite._arbitrary_trace(rng, 60, with_lengths=seed % 2 == 0)
            by = rng.randint(0, 1000)
            shifted = suite._shift(trace, by)
            _valid_as_checked(shifted)
            assert shifted.arrivals == tuple(a + by for a in trace.arrivals)
            assert shifted.lengths == trace.lengths


class TestAlignedSuperpositionTightness:
    def test_burst_bound_attained(self):
        for period, count in ((10, 40), (1, 5), (17, 3), (100, 1)):
            flow = gen_periodic(period, 0, count)
            merged = merge_traces([flow, flow])
            fit = fit_lambda_nu(merged, lam=F(2, period))
            assert fit.model.nu == 1
            assert fit.binding_pair == (1, 2)
