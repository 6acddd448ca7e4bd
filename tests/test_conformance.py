from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product

import pytest

from maxplus_tc import (
    InfeasibleFitError,
    LambdaNuModel,
    Lcg64,
    MissingLengthsError,
    SigmaRhoModel,
    Trace,
    TSpecModel,
    UnboundedFitError,
    WindowMode,
    check_lambda_nu,
    check_sigma_rho,
    check_tspec,
    fit_lambda_nu,
    fit_tspec,
    reference,
    report_to_json,
)
from maxplus_tc import conformance
from maxplus_tc.conformance import fit_sigma_rho

F = Fraction


def _random_trace(rng, max_packets=60, with_lengths=False):
    count = rng.randint(0, max_packets)
    arrivals = []
    tick = 0
    for _ in range(count):
        arrivals.append(tick)
        if rng.randint(0, 2):
            tick += rng.randint(0, 25)
    lengths = tuple(rng.randint(1, 500) for _ in range(count)) if with_lengths else None
    return Trace(tuple(arrivals), lengths=lengths)


def _fit_outcome(fit, trace, nu):
    """The rate fit at burst nu, or the type and pair of the error it raised."""
    try:
        return fit(trace, nu=nu)
    except (InfeasibleFitError, UnboundedFitError) as exc:
        return type(exc), getattr(exc, "pair", None)


def _shifted(trace):
    """The same trace moved past the int64 range."""
    return Trace(tuple(a + 2**63 for a in trace.arrivals), lengths=trace.lengths)


class TestCheckLambdaNu:
    def test_periodic_conforms(self):
        report = check_lambda_nu(Trace((0, 10, 20, 30)), LambdaNuModel(F(1, 10), F(0)))
        assert report.conforms
        assert report.witness is None
        assert report.checked_pairs == 6

    def test_burst_within_allowance(self):
        report = check_lambda_nu(Trace((0, 0, 10, 20)), LambdaNuModel(F(1, 10), F(1)))
        assert report.conforms
        # bound met with equality along the initial burst anchor
        assert report.tight_pairs == ((1, 2), (1, 3), (1, 4))

    def test_violation_witness(self):
        report = check_lambda_nu(Trace((0, 0, 10)), LambdaNuModel(F(1, 10), F(0)))
        assert not report.conforms
        assert (report.witness.m, report.witness.n) == (1, 2)
        assert report.witness.required == 10
        assert report.witness.actual == 0

    def test_empty_and_singleton(self):
        model = LambdaNuModel(F(1), F(0))
        assert check_lambda_nu(Trace(()), model).conforms
        assert check_lambda_nu(Trace((5,)), model).conforms

    def test_time_shift_invariance(self):
        model = LambdaNuModel(F(1, 3), F(1, 2))
        base = Trace((0, 2, 9, 9, 15))
        shifted = Trace(tuple(a + 1000 for a in base.arrivals))
        assert (
            check_lambda_nu(base, model).conforms
            == check_lambda_nu(shifted, model).conforms
        )

    def test_earliest_violation_ordering(self):
        # violations at (2,3) and (1,5); smallest ending index wins
        report = check_lambda_nu(Trace((0, 2, 2, 3, 3)), LambdaNuModel(F(1), F(0)))
        assert (report.witness.m, report.witness.n) == (2, 3)

    def test_ticks_past_2_63_give_the_small_trace_report(self):
        # a shift by 2**63 changes no field of the report
        huge = 2**63
        small = Trace((0, 1, 1, 5))
        big = Trace(tuple(a + huge for a in small.arrivals))
        model = LambdaNuModel(F(1), F(1))
        assert check_lambda_nu(big, model) == check_lambda_nu(small, model)


class TestConvolutionRoute:
    def test_periodic_conforms(self):
        report = reference.check_lambda_nu_via_convolution(
            Trace((0, 10, 20, 30)), LambdaNuModel(F(1, 10), F(0))
        )
        assert report.conforms

    def test_violation_at_second_packet(self):
        report = reference.check_lambda_nu_via_convolution(
            Trace((0, 0, 10)), LambdaNuModel(F(1, 10), F(0))
        )
        assert not report.conforms
        assert report.witness.n == 2

    def test_empty_trace(self):
        report = reference.check_lambda_nu_via_convolution(Trace(()), LambdaNuModel(F(1), F(0)))
        assert report.conforms


class TestCheckTspec:
    def test_exact_budget(self):
        assert check_tspec(Trace((0, 1, 2)), TSpecModel(F(2), 3)).conforms

    def test_over_budget(self):
        report = check_tspec(Trace((0, 1, 2)), TSpecModel(F(2), 2))
        assert not report.conforms
        assert report.witness.m == 1
        assert (report.witness.required, report.witness.actual) == (2, 3)

    def test_open_window_excludes_boundary(self):
        assert check_tspec(
            Trace((0, 1, 2)), TSpecModel(F(2), 2, WindowMode.OPEN)
        ).conforms

    def test_empty(self):
        assert check_tspec(Trace(()), TSpecModel(F(5), 1)).conforms


class TestCheckSigmaRho:
    def test_spread_burst_conforms(self):
        trace = Trace((0, 10), lengths=(100, 100))
        report = check_sigma_rho(trace, SigmaRhoModel(sigma=F(100), rho=F(10)))
        assert report.conforms
        # the worst window [0, 10] carries exactly its budget
        assert (0, 10) in report.tight_pairs

    def test_simultaneous_burst_violates(self):
        trace = Trace((0, 0), lengths=(100, 100))
        report = check_sigma_rho(trace, SigmaRhoModel(sigma=F(100), rho=F(10)))
        assert not report.conforms
        assert (report.witness.m, report.witness.n) == (0, 0)
        assert report.witness.actual == 200

    def test_empty(self):
        assert check_sigma_rho(Trace(()), SigmaRhoModel(F(1), F(1))).conforms

    def test_missing_lengths(self):
        with pytest.raises(MissingLengthsError):
            check_sigma_rho(Trace((1,)), SigmaRhoModel(F(1), F(1)))

    def test_interior_burst_needs_burst_budget(self):
        # a 200-bit burst at tick 10 busts sigma=100 no matter the rate
        trace = Trace((10, 10), lengths=(100, 100))
        assert not check_sigma_rho(trace, SigmaRhoModel(F(100), F(10))).conforms

    def test_bit_counts_scaled_by_2_62_give_the_same_windows(self):
        # bit counts and model scaled by 2**62 give the same verdict, tight
        # windows and witness window
        small = Trace((0, 3, 3, 9), lengths=(50, 20, 20, 50))
        huge = Trace(small.arrivals, lengths=tuple(l * 2**62 for l in small.lengths))
        model = SigmaRhoModel(sigma=F(60), rho=F(9))
        scaled = SigmaRhoModel(sigma=F(60) * 2**62, rho=F(9) * 2**62)
        a = check_sigma_rho(small, model)
        b = check_sigma_rho(huge, scaled)
        assert a.conforms == b.conforms
        assert a.tight_pairs == b.tight_pairs
        if a.witness:
            assert (a.witness.m, a.witness.n) == (b.witness.m, b.witness.n)

    def test_matches_oracle_randomized(self):
        rng = Lcg64(555)
        for _ in range(120):
            trace = _random_trace(rng, max_packets=30, with_lengths=True)
            model = SigmaRhoModel(
                sigma=F(rng.randint(0, 3000), rng.randint(1, 3)),
                rho=F(rng.randint(1, 400), rng.randint(1, 4)),
            )
            # the drawn model, and the tightest burst at its rate
            covering = reference.fit_sigma_rho_pairwise(trace, rho=model.rho).model
            for model in (model, covering):
                assert report_to_json(check_sigma_rho(trace, model)) == report_to_json(
                    reference.check_sigma_rho_pairwise(trace, model)
                )


    @pytest.mark.parametrize(
        "trace",
        [
            Trace((0, 0, 3, 7), lengths=(40, 60, 100, 10)),  # first tick 0
            Trace((5, 5, 5), lengths=(100, 200, 300)),  # every packet on one tick
            Trace((0, 0), lengths=(1, 2)),
            Trace((), lengths=()),
        ],
    )
    def test_breakpoint_edges_match_reference(self, trace):
        for model in (SigmaRhoModel(F(100), F(10)), SigmaRhoModel(F(600), F(1, 3))):
            assert report_to_json(check_sigma_rho(trace, model)) == report_to_json(
                reference.check_sigma_rho_pairwise(trace, model)
            )


class TestFitLambdaNu:
    def test_fit_burst(self):
        fit = fit_lambda_nu(Trace((0, 0, 10, 20)), lam=F(1, 10))
        assert fit.model.nu == 1
        assert fit.binding_pair == (1, 2)

    def test_fit_rate_periodic(self):
        fit = fit_lambda_nu(Trace((0, 10, 20)), nu=F(0))
        assert fit.model.lam == F(1, 10)
        assert fit.binding_pair == (1, 2)

    def test_infeasible_names_pair(self):
        with pytest.raises(InfeasibleFitError) as exc:
            fit_lambda_nu(Trace((0, 0, 10)), nu=F(0))
        assert exc.value.pair == (1, 2)

    @pytest.mark.parametrize(
        "arrivals, nu, pair",
        [((0, 0, 10), F(0), (1, 2)), ((0, 5, 5, 5, 5, 9), F(5, 2), (2, 5)), ((7, 7, 7), F(1), (1, 3))],
    )
    def test_infeasible_message_names_first_group_member(self, arrivals, nu, pair):
        with pytest.raises(InfeasibleFitError) as exc:
            fit_lambda_nu(Trace(arrivals), nu=nu)
        m, n = pair
        assert exc.value.pair == pair
        assert str(exc.value) == (
            f"packets {m} and {n} arrive together but are {n - m} apart "
            f"in count, more than the allowance {nu}"
        )

    def test_unconstrained_rate(self):
        with pytest.raises(UnboundedFitError):
            fit_lambda_nu(Trace((0, 5)), nu=F(3))

    def test_empty_trace_burst(self):
        fit = fit_lambda_nu(Trace(()), lam=F(1))
        assert fit.model.nu == 0
        assert fit.binding_pair is None

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            fit_lambda_nu(Trace((0,)))
        with pytest.raises(ValueError):
            fit_lambda_nu(Trace((0,)), lam=F(1), nu=F(0))

    def test_matches_oracle_and_is_tight(self):
        rng = Lcg64(9090)
        for _ in range(100):
            trace = _random_trace(rng, max_packets=40)
            lam = F(rng.randint(1, 6), rng.randint(1, 30))
            for trace in (trace, _shifted(trace)):
                fit = fit_lambda_nu(trace, lam=lam)
                assert fit == reference.fit_lambda_nu_pairwise(trace, lam=lam)
                assert check_lambda_nu(trace, fit.model).conforms
                if fit.model.nu > 0:
                    tighter = LambdaNuModel(lam, fit.model.nu - F(1, 1000))
                    assert not check_lambda_nu(trace, tighter).conforms

    def test_fit_rate_matches_oracle(self):
        rng = Lcg64(4242)
        for _ in range(100):
            trace = _random_trace(rng, max_packets=40)
            nu = F(rng.randint(0, 8), rng.randint(1, 2))
            for trace in (trace, _shifted(trace)):
                fit = _fit_outcome(fit_lambda_nu, trace, nu)
                assert fit == _fit_outcome(reference.fit_lambda_nu_pairwise, trace, nu)
                if not isinstance(fit, tuple):
                    assert check_lambda_nu(trace, fit.model).conforms


class TestFitRefusals:
    """The exact error a fit raises for a parameter out of its model's range,
    checked before anything about the trace."""

    @pytest.mark.parametrize(
        "fit, trace, given, message",
        [
            (fit_lambda_nu, Trace((0, 5, 9)), dict(lam=0), "rate must be positive, got 0"),
            (fit_lambda_nu, Trace((0, 5, 9)), dict(lam=F(-1, 2)), "rate must be positive, got -1/2"),
            (fit_lambda_nu, Trace((0, 5, 9)), dict(nu=-1),
             "burst allowance must be nonnegative, got -1"),
            (fit_lambda_nu, Trace(()), dict(lam=0), "rate must be positive, got 0"),
            # no lengths: the rate is refused before MissingLengthsError
            (fit_sigma_rho, Trace((0, 5, 9)), dict(rho=0), "rate must be positive, got 0"),
        ],
    )
    def test_refusal_is_pinned(self, fit, trace, given, message):
        with pytest.raises(ValueError) as exc:
            fit(trace, **given)
        assert exc.type is ValueError and str(exc.value) == message


class TestFitSigmaRho:
    def test_worked_example(self):
        # at 10 bits/tick the 300 bits on tick 5 exceed by 300; [0, 5] and
        # [5, 9] exceed by 260 and 265, and [0, 9] by 225
        fit = fit_sigma_rho(Trace((0, 5, 5, 9), lengths=(10, 200, 100, 5)), rho=10)
        assert fit.model == SigmaRhoModel(sigma=F(300), rho=F(10))
        assert fit.binding_pair == (5, 5)

    def test_empty_trace_needs_no_lengths(self):
        fit = fit_sigma_rho(Trace(()), rho=F(1, 2))
        assert fit.model == SigmaRhoModel(sigma=F(0), rho=F(1, 2))
        assert fit.binding_pair is None

    def test_missing_lengths(self):
        with pytest.raises(MissingLengthsError):
            fit_sigma_rho(Trace((1,)), rho=1)

    @pytest.mark.parametrize("trace", [Trace((1,)), Trace((0, 0, 7))])
    def test_check_and_fit_refuse_a_lengthless_trace_alike(self, trace):
        with pytest.raises(MissingLengthsError) as checked:
            check_sigma_rho(trace, SigmaRhoModel(F(1), F(1)))
        with pytest.raises(MissingLengthsError) as fitted:
            fit_sigma_rho(trace, rho=1)
        assert str(fitted.value) == str(checked.value) == "bit-domain models need per-packet lengths"
        # the empty lengthless trace is no refusal: it fits sigma = 0, with no binding window
        fit = fit_sigma_rho(Trace(()), rho=F(3, 2))
        assert fit.model == SigmaRhoModel(F(0), F(3, 2)) and fit.binding_pair is None

    @pytest.mark.parametrize("rho", [0, F(-1, 3)])
    def test_rate_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="rate must be positive"):
            fit_sigma_rho(Trace((1,), lengths=(8,)), rho=rho)


class TestGainScans:
    """The verdict scan and the largest-gain scan against a double loop over
    every pair, on every short list of small keys, so that ties are
    everywhere; lists no longer than the lag have no pair (None)."""

    KEYS = range(4)
    LIMITS = range(-4, 4)  # every gain of keys in 0..3 lies in -3..3

    @staticmethod
    def _pairs(starts, ends, lag):
        """(gain, n, m) of every pair with n - m >= lag, in (n, m) order."""
        return [
            (ends[n - 1] - starts[m - 1], n, m)
            for n in range(1, len(ends) + 1)
            for m in range(1, n - lag + 1)
        ]

    def _check(self, starts, ends, lag):
        pairs = self._pairs(starts, ends, lag)
        for limit in self.LIMITS:
            first = next(((m, n) for gain, n, m in pairs if gain > limit), None)
            assert conformance._first_over(starts, ends, lag, limit) == first
        top = None
        if pairs:
            best = max(gain for gain, _, _ in pairs)
            _, n, m = next(pair for pair in pairs if pair[0] == best)
            top = (m, n, best)
        assert conformance._top_gain(starts, ends, lag) == top

    @pytest.mark.parametrize("lag", range(4))
    def test_one_key_list_on_both_sides(self, lag):
        for size in range(7):
            for keys in product(self.KEYS, repeat=size):
                self._check(list(keys), list(keys), lag)

    @pytest.mark.parametrize("lag", range(4))
    def test_distinct_start_and_end_keys(self, lag):
        for size in range(4):
            for starts in product(self.KEYS, repeat=size):
                for ends in product(self.KEYS, repeat=size):
                    self._check(list(starts), list(ends), lag)


class TestFitTspec:
    def test_closed_window(self):
        fit = fit_tspec(Trace((0, 1, 2)), F(2))
        assert fit.model.k_max == 3

    def test_open_window(self):
        fit = fit_tspec(Trace((0, 1, 2)), F(2), WindowMode.OPEN)
        assert fit.model.k_max == 2

    def test_single_packet(self):
        assert fit_tspec(Trace((0,)), F(17)).model.k_max == 1

    def test_empty_trace(self):
        fit = fit_tspec(Trace(()), F(5))
        assert fit.model.k_max == 1
        assert fit.binding_pair is None

    def test_fit_is_minimal_randomized(self):
        rng = Lcg64(6006)
        for _ in range(100):
            trace = _random_trace(rng, max_packets=40)
            tau = F(rng.randint(1, 60), rng.randint(1, 2))
            mode = rng.choice((WindowMode.CLOSED, WindowMode.OPEN))
            fit = fit_tspec(trace, tau, mode)
            assert fit == reference.fit_tspec_pairwise(trace, tau, mode)
            assert check_tspec(trace, fit.model).conforms
            if fit.model.k_max > 1:
                smaller = TSpecModel(tau, fit.model.k_max - 1, mode)
                assert not check_tspec(trace, smaller).conforms

    def test_busiest_window_of_three(self):
        trace = Trace((0, 1, 2))
        fit = fit_tspec(trace, F(2), WindowMode.CLOSED)
        assert (fit.model.k_max, fit.binding_pair) == (3, (1, 3))
        assert reference.fit_tspec_pairwise(trace, F(2), WindowMode.CLOSED) == fit

    @pytest.mark.parametrize(
        "arrivals, tau, mode",
        [
            ((), F(5), WindowMode.CLOSED),
            ((), F(5), WindowMode.OPEN),
            ((4, 4, 4, 4), F(1), WindowMode.CLOSED),  # every packet on one tick
            ((4, 4, 4, 4), F(1), WindowMode.OPEN),
            ((0, 3, 6, 6, 9, 12), F(3), WindowMode.OPEN),  # integer tau, open
            ((0, 3, 6, 6, 9, 12), F(3), WindowMode.CLOSED),
        ],
    )
    def test_max_window_count_edges_match_reference(self, arrivals, tau, mode):
        trace = Trace(arrivals)
        assert fit_tspec(trace, tau, mode) == reference.fit_tspec_pairwise(trace, tau, mode)

    @pytest.mark.parametrize("mode", [WindowMode.CLOSED, WindowMode.OPEN])
    @pytest.mark.parametrize("tau", [F(1), F(5, 2), F(3)])
    def test_every_short_trace_matches_reference(self, tau, mode):
        # every trace of up to 6 packets with gaps of 0..3 ticks
        for size in range(7):
            for gaps in product(range(4), repeat=max(0, size - 1)):
                trace = Trace(tuple(accumulate(gaps, initial=0))[:size])
                fit = fit_tspec(trace, tau, mode)
                assert fit == reference.fit_tspec_pairwise(trace, tau, mode)

    @pytest.mark.parametrize("arrivals", [(), (1,)])
    @pytest.mark.parametrize("tau", [F(-3), F(0)])
    def test_rejects_tau_for_every_trace(self, arrivals, tau):
        with pytest.raises(ValueError, match="^interval must be positive"):
            fit_tspec(Trace(arrivals), tau, WindowMode.CLOSED)


class TestBoundedReports:
    """Every cap keeps the full reference count and lists its prefix."""

    CAPS = (0, 1, 7, None)

    def _assert_bounded(self, check, reference_check, trace, model):
        full = reference_check(trace, model)
        for max_tight in self.CAPS:
            report = check(trace, model, max_tight=max_tight)
            assert report.tight_count == len(full.tight_pairs)
            assert report.tight_pairs == full.tight_pairs[:max_tight]
            assert report.truncated == (len(report.tight_pairs) < report.tight_count)
            assert (report.conforms, report.witness, report.checked_pairs) == (
                full.conforms, full.witness, full.checked_pairs
            )

    def test_lambda_nu(self):
        rng = Lcg64(8128)
        for _ in range(80):
            trace = _random_trace(rng, max_packets=45)
            lam = F(rng.randint(1, 6), rng.randint(1, 30))
            # nu > 1 and not whole: simultaneous packets closer than the lag
            drawn = LambdaNuModel(lam, F(rng.randint(3, 30), rng.randint(2, 3)))
            for trace in (trace, _shifted(trace)):
                for model in (drawn, fit_lambda_nu(trace, lam=lam).model):
                    self._assert_bounded(
                        check_lambda_nu, reference.check_lambda_nu_via_convolution, trace, model
                    )

    def test_tspec(self):
        rng = Lcg64(4096)
        for _ in range(80):
            trace = _random_trace(rng, max_packets=45)
            tau = F(rng.randint(1, 60), rng.randint(1, 2))
            mode = rng.choice((WindowMode.CLOSED, WindowMode.OPEN))
            drawn = TSpecModel(tau, rng.randint(1, 6), mode)
            for trace in (trace, _shifted(trace)):
                for model in (drawn, fit_tspec(trace, tau, mode).model):
                    self._assert_bounded(check_tspec, reference.check_tspec_pairwise, trace, model)

    def test_sigma_rho(self):
        rng = Lcg64(1618)
        for _ in range(60):
            trace = _random_trace(rng, max_packets=30, with_lengths=True)
            rho = F(rng.randint(1, 400), rng.randint(1, 4))
            drawn = SigmaRhoModel(F(rng.randint(0, 3000), rng.randint(1, 3)), rho)
            # equal lengths at a fixed period: at that rate every window is tight
            period, bits, n = rng.randint(1, 9), rng.randint(1, 500), len(trace)
            steady = Trace(tuple(range(0, period * n, period)), lengths=(bits,) * n)
            for trace, rho in ((trace, rho), (steady, F(bits, period))):
                for trace in (trace, _shifted(trace)):
                    covering = reference.fit_sigma_rho_pairwise(trace, rho=rho).model
                    for model in (drawn, covering):
                        self._assert_bounded(
                            check_sigma_rho, reference.check_sigma_rho_pairwise, trace, model
                        )

    @pytest.mark.parametrize("check, trace, model", [
        # packets 1 and 2 share a tick within the lag: the simultaneous list too
        (check_lambda_nu, Trace((0, 0, 10, 20)), LambdaNuModel(F(1, 10), F(2))),
        (check_tspec, Trace((0, 1, 2, 3)), TSpecModel(F(2), 3)),
        (check_sigma_rho, Trace((0, 10, 20), lengths=(8, 8, 8)), SigmaRhoModel(F(8), F(4, 5))),
    ], ids=["lambda_nu", "tspec", "sigma_rho"])
    def test_cap_past_maxsize_lists_every_pair(self, check, trace, model):
        # a cap past the pair count lists them all
        report = check(trace, model, max_tight=2**64)
        assert report == check(trace, model) and report.tight_pairs
        assert not report.truncated

    def test_periodic_at_its_own_rate_counts_every_pair(self):
        n = 3000
        trace = Trace(tuple(range(0, 10 * n, 10)))
        report = check_lambda_nu(trace, LambdaNuModel(F(1, 10), F(0)), max_tight=5)
        assert report.tight_count == n * (n - 1) // 2
        assert report.tight_pairs == ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
        assert report.truncated
        assert report_to_json(report)["tight_count"] == n * (n - 1) // 2
        assert report_to_json(report)["truncated"] is True


class TestCountsPastTheTrace:
    """A burst allowance or packet budget past 2**63, beyond any trace, is a
    valid model: every trace conforms, and simultaneous packets are the only
    tight pairs of the allowance."""

    # every nondecreasing trace of at most 4 packets over ticks 0, 1 and 5
    TRACES = [Trace(t) for n in range(5) for t in combinations_with_replacement((0, 1, 5), n)]

    @pytest.mark.parametrize("nu", [2**63 - 1, 2**63, 10**20], ids=str)
    def test_lambda_nu_matches_the_convolution_route(self, nu):
        for lam, trace in product((F(1, 3), F(2)), self.TRACES):
            model = LambdaNuModel(lam, nu)
            report = check_lambda_nu(trace, model)
            assert report == reference.check_lambda_nu_via_convolution(trace, model)
            assert conformance.FIRST_VIOLATION[LambdaNuModel](trace, model) is None

    @pytest.mark.parametrize("k_max", [2**63, 2**63 + 1, 10**20], ids=str)
    def test_tspec_matches_the_pairwise_route(self, k_max):
        for tau, mode, trace in product((F(1), F(5, 2)), WindowMode, self.TRACES):
            tspec = TSpecModel(tau, k_max, mode)
            assert check_tspec(trace, tspec) == reference.check_tspec_pairwise(trace, tspec)
            assert conformance.FIRST_VIOLATION[TSpecModel](trace, tspec) is None
