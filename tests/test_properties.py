"""Invariant checks driven by hypothesis, calling the suite's predicates where it has one."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus_tc import (
    LambdaNuModel,
    MissingLengthsError,
    SigmaRhoModel,
    Trace,
    TSpecModel,
    WindowMode,
    check_lambda_nu,
    check_tspec,
    fit_lambda_nu,
    merge_traces,
    reference,
)
from maxplus_tc.conformance import CHECKERS, FIRST_VIOLATION, fit_sigma_rho
from maxplus_tc.suite import (lambda_nu_routes_agree, merge_conforms_to_sum,
                              merge_order_insensitive, tspec_routes_agree)

F = Fraction

rationals = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)
positive_rationals = st.builds(
    F, st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=20)
)
burst_rationals = st.builds(
    F, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=6)
)
bit_rates = st.builds(
    F, st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=8)
)


@st.composite
def traces(draw, max_packets=25, with_lengths=False):
    gaps = draw(
        st.lists(st.integers(min_value=0, max_value=20), max_size=max_packets)
    )
    arrivals = []
    tick = draw(st.integers(min_value=0, max_value=10))
    for g in gaps:
        arrivals.append(tick)
        tick += g
    lengths = None
    if with_lengths:
        lengths = tuple(
            draw(st.integers(min_value=1, max_value=500)) for _ in arrivals
        )
    return Trace(tuple(arrivals), lengths=lengths)


class TestRationalExactness:
    @given(rationals, rationals)
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a

    @given(rationals, positive_rationals)
    def test_multiply_divide_roundtrips(self, a, b):
        assert (a * b) / b == a


class TestCheckerInvariants:
    @given(traces(), positive_rationals, burst_rationals)
    @settings(max_examples=60)
    def test_matches_bruteforce(self, trace, lam, nu):
        assert lambda_nu_routes_agree(trace, LambdaNuModel(lam, nu)) is None

    @given(
        traces(),
        positive_rationals,
        burst_rationals,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60)
    def test_loosening_preserves_conformance(self, trace, lam, nu, dl, dn):
        model = LambdaNuModel(lam, nu)
        if check_lambda_nu(trace, model).conforms:
            looser = LambdaNuModel(lam + F(dl, 4), nu + F(dn, 4))
            assert check_lambda_nu(trace, looser).conforms

    @given(
        traces(),
        positive_rationals,
        st.integers(min_value=1, max_value=6),
        st.sampled_from((WindowMode.CLOSED, WindowMode.OPEN)),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60)
    def test_tspec_loosening(self, trace, tau, k, mode, dk, tau_div):
        tspec = TSpecModel(tau, k, mode)
        if check_tspec(trace, tspec).conforms:
            looser = TSpecModel(tau / tau_div, k + dk, mode)
            assert check_tspec(trace, looser).conforms

    @given(
        traces(),
        positive_rationals,
        st.integers(min_value=1, max_value=6),
        st.sampled_from((WindowMode.CLOSED, WindowMode.OPEN)),
    )
    @settings(max_examples=60)
    def test_window_scan_equals_pairwise(self, trace, tau, k, mode):
        assert tspec_routes_agree(trace, TSpecModel(tau, k, mode)) is None

    @given(traces(max_packets=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_shift_invariance(self, trace, shift):
        model = LambdaNuModel(F(1, 3), F(3, 2))
        shifted = Trace(tuple(a + shift for a in trace.arrivals))
        assert (
            check_lambda_nu(trace, model).conforms
            == check_lambda_nu(shifted, model).conforms
        )


@st.composite
def verdict_cases(draw):
    """A model of any family and a trace, with or without lengths; half the
    traces put every packet on one tick."""
    with_lengths = draw(st.booleans())
    if draw(st.booleans()):
        trace = draw(traces(with_lengths=with_lengths))
    else:
        n = draw(st.integers(min_value=0, max_value=12))
        tick = draw(st.integers(min_value=0, max_value=10))
        trace = Trace((tick,) * n, lengths=(64,) * n if with_lengths else None)
    family = draw(st.sampled_from((LambdaNuModel, TSpecModel, SigmaRhoModel)))
    if family is LambdaNuModel:
        model = LambdaNuModel(draw(positive_rationals), draw(burst_rationals))
    elif family is TSpecModel:
        model = TSpecModel(draw(positive_rationals), draw(st.integers(min_value=1, max_value=6)),
                           draw(st.sampled_from((WindowMode.CLOSED, WindowMode.OPEN))))
    else:
        model = SigmaRhoModel(draw(burst_rationals) * 100, draw(bit_rates))
    return trace, model


class TestFirstViolation:
    @given(verdict_cases())
    @example((Trace(()), LambdaNuModel(F(1, 3), F(0))))
    @example((Trace(()), SigmaRhoModel(F(0), F(1))))  # no packet needs no length
    @example((Trace((5,)), TSpecModel(F(1), 1, WindowMode.CLOSED)))
    @example((Trace((5,), lengths=(9,)), SigmaRhoModel(F(8), F(1))))
    @example((Trace((3, 3, 3, 3)), LambdaNuModel(F(1, 3), F(2))))
    @example((Trace((3, 3, 3, 3)), TSpecModel(F(1), 2, WindowMode.OPEN)))
    @example((Trace((3, 3, 3), lengths=(8, 8, 8)), SigmaRhoModel(F(16), F(1))))
    @example((Trace((0, 4)), SigmaRhoModel(F(1), F(1))))
    @settings(max_examples=300)
    def test_pair_is_the_witness_pair(self, case):
        # the verdict route answers as the full check does, and raises alike
        trace, model = case
        route = FIRST_VIOLATION[type(model)]
        try:
            report = CHECKERS[type(model)](trace, model)
        except MissingLengthsError:
            with pytest.raises(MissingLengthsError):
                route(trace, model)
            return
        pair = route(trace, model)
        assert (pair is None) == report.conforms
        if pair is not None:
            assert pair == (report.witness.m, report.witness.n)


class TestMergeInvariants:
    @given(st.lists(traces(max_packets=10), min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_tick_sequence_permutation_invariant(self, trace_list):
        assert merge_order_insensitive(trace_list) is None

    @given(
        st.lists(traces(max_packets=8), min_size=2, max_size=3),
        positive_rationals,
        burst_rationals,
    )
    @settings(max_examples=40)
    def test_thinning_never_breaks_aggregate_conformance(self, trace_list, lam, nu):
        # sub-flow deletion keeps any conforming aggregate conforming
        model = LambdaNuModel(lam, nu)
        merged = merge_traces(trace_list)
        if check_lambda_nu(merged, model).conforms:
            thinned = Trace(merged.arrivals[:: 2])
            assert check_lambda_nu(thinned, model).conforms

    @given(st.lists(traces(max_packets=8), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_aggregate_of_fitted_flows_conforms_to_sum(self, trace_list):
        models = [fit_lambda_nu(t, lam=F(1, 5)).model for t in trace_list]
        assert merge_conforms_to_sum(models, trace_list) is None


@st.composite
def bit_traces(draw):
    """Traces with lengths, sometimes moved past the int64 range."""
    trace = draw(traces(max_packets=20, with_lengths=True))
    if draw(st.booleans()):
        trace = Trace(tuple(a + 2**63 for a in trace.arrivals), lengths=trace.lengths)
    return trace


class TestFitSigmaRho:
    @given(bit_traces(), bit_rates, st.fractions(min_value=0, max_value=1))
    @example(Trace((), lengths=()), F(3, 8), F(1))
    @example(Trace((0, 0, 4), lengths=(5, 7, 9)), F(7, 8), F(1, 2))  # first tick 0
    @example(Trace((6, 6, 6), lengths=(100, 1, 30)), F(1, 3), F(1, 100))  # one tick
    @example(Trace((2**63, 2**63 + 9), lengths=(40, 400)), F(500, 7), F(1))
    @settings(max_examples=300)
    def test_least_burst_matches_reference(self, trace, rho, cut):
        fit = fit_sigma_rho(trace, rho=rho)
        # the same sigma, and the same window binding it (none for no packet)
        assert fit == reference.fit_sigma_rho_pairwise(trace, rho=rho)
        assert reference.check_sigma_rho_pairwise(trace, fit.model).conforms
        if fit.model.sigma > 0 and cut > 0:
            smaller = SigmaRhoModel(fit.model.sigma * (1 - cut), rho)
            assert not reference.check_sigma_rho_pairwise(trace, smaller).conforms
