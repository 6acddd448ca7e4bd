import hashlib
import json
from fractions import Fraction as F

import pytest

from maxplus_tc import (
    PROPERTY_NAMES,
    FitResult,
    LambdaNuModel,
    SigmaRhoModel,
    SuiteConfig,
    Trace,
    TSpecModel,
    aggregate_eq1,
    check_lambda_nu,
    check_lambda_nu_via_convolution,
    check_sigma_rho,
    check_tspec,
    check_tspec_pairwise,
    curve_to_lambda_nu,
    fit_lambda_nu,
    gen_tspec_extremal,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
    merge_traces,
    model_from_json,
    model_to_json,
    report_to_json,
    run_property,
    run_property_suite,
    superpose_indirect,
    superpose_lambda_nu,
    superpose_tspec,
)
from maxplus_tc import conformance, suite
from maxplus_tc.generators import Lcg64
from maxplus_tc.suite import PROPERTIES, _property_seed, merge_conforms_to_sum


def _half_rate(model):
    return LambdaNuModel(model.lam / 2, model.nu)


def _one_packet_less(tspec):
    return TSpecModel(tspec.tau, max(1, tspec.k_max - 1), tspec.window_mode)


def _one_packet_more(tspec):
    return TSpecModel(tspec.tau, tspec.k_max + 1, tspec.window_mode)


def _no_slack(models):
    return LambdaNuModel(sum(m.lam for m in models), sum(m.nu for m in models))


def _drop_last(trace):
    lengths = None if trace.lengths is None else trace.lengths[:-1]
    return Trace(trace.arrivals[:-1], lengths)


def _loose_burst_fit(trace, *, lam=None, nu=None):
    fit = fit_lambda_nu(trace, lam=lam, nu=nu)
    if lam is None:
        return fit
    return FitResult(LambdaNuModel(fit.model.lam, fit.model.nu + 1), fit.binding_pair)


# operators the suite checks, each broken a little: a packet, a slack term or
# half the rate off, or a merge that loses a packet of its first flow
WEAKENED = {
    "check_lambda_nu_via_convolution":
        lambda t, m: check_lambda_nu_via_convolution(t, LambdaNuModel(m.lam, m.nu + 1)),
    "check_tspec_pairwise": lambda t, s: check_tspec_pairwise(t, _one_packet_more(s)),
    "superpose_lambda_nu": _no_slack,
    "superpose_indirect": lambda ms, ls, l: _half_rate(superpose_indirect(ms, ls, l)),
    "map_lambda_nu_to_tspec": lambda m, v, j: _one_packet_less(map_lambda_nu_to_tspec(m, v, j)),
    "map_tspec_to_lambda_nu": lambda s: _half_rate(map_tspec_to_lambda_nu(s)),
    "curve_to_lambda_nu": lambda c: _half_rate(curve_to_lambda_nu(c)),
    "aggregate_eq1": lambda ts, n: aggregate_eq1(ts, n) + (n > 0),
    "merge_traces": lambda ts: merge_traces([_drop_last(ts[0]), *ts[1:]]),
    "fit_lambda_nu": _loose_burst_fit,
    "gen_tspec_extremal": lambda s, count: gen_tspec_extremal(_one_packet_more(s), count),
}
WEAKENED_SUMS = {
    LambdaNuModel: lambda ms: _half_rate(superpose_lambda_nu(ms)),
    TSpecModel: lambda ts: _one_packet_less(superpose_tspec(ts)),
    SigmaRhoModel: lambda ms: SigmaRhoModel(sum(m.sigma for m in ms) / 2, sum(m.rho for m in ms)),
}


class TestSuite:
    def test_small_run_passes(self):
        summary = run_property_suite(SuiteConfig(seed=5, trials=5))
        assert summary.failures_total == 0
        assert all(p.trials == 5 for p in summary.properties)
        assert {p.name for p in summary.properties} == set(PROPERTY_NAMES)

    def test_summary_bytes_deterministic(self):
        cfg = SuiteConfig(seed=12345, trials=4)
        a = json.dumps(run_property_suite(cfg).to_json_dict())
        b = json.dumps(run_property_suite(cfg).to_json_dict())
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        # determinism is per seed; the machine summary carries the seed
        a = run_property_suite(SuiteConfig(seed=1, trials=2)).to_json_dict()
        b = run_property_suite(SuiteConfig(seed=2, trials=2)).to_json_dict()
        assert a != b

    def test_zero_trials_vacuous_with_warning(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=0))
        assert summary.failures_total == 0
        assert summary.warning is not None
        assert summary.to_json_dict()["warning"]

    def test_machine_summary_has_no_timing(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=1))
        text = json.dumps(summary.to_json_dict())
        assert "elapsed" not in text
        assert summary.elapsed > 0

    def test_text_rendering_mentions_wall_time(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=1))
        assert "wall time" in summary.render_text()

    def test_single_property_runner(self):
        report = run_property(
            "mapping_roundtrip_scales_rate", seed=7, trials=20, cfg=SuiteConfig(seed=7)
        )
        assert report.trials == 20
        assert report.passed

    def test_unknown_property_rejected(self):
        with pytest.raises(KeyError):
            run_property("no_such_property", seed=1, trials=1, cfg=SuiteConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(trials=-1)
        with pytest.raises(ValueError):
            SuiteConfig(max_flows=1)
        with pytest.raises(ValueError):
            SuiteConfig(max_packets=0)

    @pytest.mark.parametrize("model, check, traces", [
        (LambdaNuModel(F(1, 10), 0), check_lambda_nu, [Trace((0, 0, 10)), Trace((0, 20))]),
        (TSpecModel(F(10), 1), check_tspec, [Trace((0, 5, 20)), Trace((3, 30))]),
        (SigmaRhoModel(100, 10), check_sigma_rho,
         [Trace((0, 0, 10), lengths=(100, 100, 100)), Trace((0,), lengths=(100,))]),
    ])
    def test_superposition_failure_record(self, model, check, traces):
        # flows that break their models: the record shows the full report,
        # tight pairs listed, though the verdict was read without counting
        record = merge_conforms_to_sum([model, model], traces)
        assert list(record) == ["models", "aggregate", "traces", "report"]
        assert record["models"] == [model_to_json(model)] * 2
        report = record["report"]
        assert report["conforms"] is False and report["witness"] is not None
        assert report["tight_pairs"] and report["truncated"] is False
        aggregate = model_from_json(record["aggregate"])
        assert report == report_to_json(check(merge_traces(traces), aggregate))

    def test_trials_and_draws_are_pinned(self):
        # A passing run's summary names only properties and trial counts,
        # so pin what the trials themselves do: each trial's outcome and the
        # generator state after it, for every property.
        cfg = SuiteConfig(seed=7, trials=40, max_packets=100)
        digest = hashlib.sha256()
        for index, (_, fn) in enumerate(PROPERTIES):
            rng = Lcg64(_property_seed(cfg.seed, index))
            for _ in range(cfg.trials):
                outcome = fn(rng, cfg)
                digest.update(repr((outcome, rng.state)).encode())
        assert digest.hexdigest() == (
            "4d595b2695fc734cabd9888e7d89baaaca98c6e64958e7c8bb3ec462af9a8e89"
        )

    def test_verdict_reads_count_no_tight_pair(self, monkeypatch):
        # a check that a property makes for its verdict alone goes through
        # FIRST_VIOLATION, so a passing run never reaches the pair counters;
        # the differential property compares full reports and is the control
        calls = []
        for name in ("_gain_exactly", "_simultaneous"):
            counted = getattr(conformance, name)
            monkeypatch.setattr(conformance, name,
                                lambda *args, f=counted, n=name: calls.append(n) or f(*args))
        cfg = SuiteConfig(seed=7, trials=40, max_packets=100)
        for name in PROPERTY_NAMES:
            if name != "pairwise_equals_maxplus_route":
                assert run_property(name, cfg.seed, cfg.trials, cfg).passed
        assert calls == []
        assert run_property("pairwise_equals_maxplus_route", cfg.seed, 1, cfg).passed
        assert set(calls) == {"_gain_exactly", "_simultaneous"}

    def test_failure_records_are_pinned(self, monkeypatch):
        # every property fails under the weakened operators; the digest pins
        # how each failure record shows its traces, models, reports,
        # rationals and enums
        for name, weak in WEAKENED.items():
            monkeypatch.setattr(suite, name, weak)
        for family, weak in WEAKENED_SUMS.items():
            monkeypatch.setitem(suite.SUPERPOSE, family, weak)
        summary = run_property_suite(SuiteConfig(seed=7, trials=30, max_packets=100))
        assert [len(p.failures) for p in summary.properties] == [
            17, 10, 25, 4, 25, 4, 4, 25, 13, 25, 12, 25, 11, 25, 25, 25,
        ]
        text = json.dumps(summary.to_json_dict(), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e817a63afb49c70c0e77ccd2c63ea6d2f38a3cf058ecc83d71a9e529a070ae49"
        )
