import hashlib
import json
import os
import signal
import threading
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

from maxplus_tc import (
    PROPERTY_NAMES,
    FitResult,
    LambdaNuModel,
    MappingVariant,
    SigmaRhoModel,
    SuiteConfig,
    Trace,
    TSpecModel,
    WindowMode,
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
from maxplus_tc import conformance, reference, suite
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


def _fail_in(monkeypatch, tmp_path, failing: str, fail) -> None:
    """Make the suite split over the parent and three forked workers, and
    make every property call ``fail`` in the parent, or in the workers
    (``failing``), after leaving a mark.  Elsewhere a property waits for the
    mark, so that a failing process takes at least one property, and then
    returns a failure record larger than a pipe's buffer."""
    parent, mark = os.getpid(), tmp_path / "failed"

    def prop(rng, cfg):
        if (os.getpid() == parent) == (failing == "parent"):
            mark.touch()
            fail()
        deadline = time.monotonic() + 10
        while not mark.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return {"padding": "x" * 100_000}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(suite, "PROPERTIES", tuple((name, prop) for name in PROPERTY_NAMES))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def _time_bound():
    """End a test whose workers never finish, as a deadlock would, in 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the suite's workers did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("_time_bound")
class TestWorkers:
    @pytest.mark.parametrize("cfg", [
        SuiteConfig(seed=7, trials=30, max_packets=100),
        SuiteConfig(seed=701, trials=30, max_packets=100),
        SuiteConfig(trials=0),
    ], ids=["seed-7", "seed-701", "trials-0"])
    def test_worker_count_changes_no_summary(self, monkeypatch, cfg):
        texts = []
        for cpus, workers in (({0}, 1), ({0, 1, 2, 3}, 4)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert suite._workers() == workers
            texts.append(json.dumps(run_property_suite(cfg).to_json_dict()))
        assert texts[0] == texts[1]
        _assert_no_child_left()

    def test_workers_at_most_one_per_property(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert suite._workers() == len(PROPERTIES)

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = SuiteConfig(seed=3, trials=2, max_packets=50)
        expected = json.dumps(run_property_suite(cfg).to_json_dict())
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert suite._workers() == 1
            assert json.dumps(run_property_suite(cfg).to_json_dict()) == expected
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_a_failed_fork_runs_on_with_the_workers_started(self, monkeypatch):
        cfg = SuiteConfig(seed=11, trials=3, max_packets=50)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        expected = json.dumps(run_property_suite(cfg).to_json_dict())
        forks, fork = [], os.fork

        def fork_once():  # the second fork fails, as at the process limit
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", fork_once)
        descriptors = len(os.listdir("/proc/self/fd"))
        assert json.dumps(run_property_suite(cfg).to_json_dict()) == expected
        assert len(forks) == 2  # no fork is tried past the failed one
        assert len(os.listdir("/proc/self/fd")) == descriptors
        _assert_no_child_left()

    @pytest.mark.parametrize("failing", ["parent", "child"])
    def test_what_a_property_raises_reaches_the_caller(self, monkeypatch, tmp_path, failing):
        def fail():
            raise ValueError("property broken on purpose")

        _fail_in(monkeypatch, tmp_path, failing, fail)
        with pytest.raises(ValueError, match="^property broken on purpose$"):
            run_property_suite(SuiteConfig(trials=1))
        _assert_no_child_left()

    @pytest.mark.parametrize("status", [0, 3])
    def test_a_worker_that_sends_nothing_raises(self, monkeypatch, tmp_path, status):
        _fail_in(monkeypatch, tmp_path, "child", lambda: os._exit(status))
        with pytest.raises(RuntimeError, match=rf"sent no reports \(exit status {status}\)"):
            run_property_suite(SuiteConfig(trials=1))
        _assert_no_child_left()


# the bounded-exhaustive scope: rate/burst models of rates 1/4..2 and
# allowances 0..2, and TSpec models of windows 1..5 (3/2 among them), one or
# two packets, closed and open
EXHAUSTIVE_MODELS = [
    LambdaNuModel(F(lam), F(nu))
    for lam in ("1/4", "1/3", "1/2", "2/3", "1", "2") for nu in ("0", "1/2", "1", "2")
] + [
    TSpecModel(F(tau), k_max, mode)
    for tau in ("1", "3/2", "2", "3", "5") for k_max in (1, 2) for mode in WindowMode
]


# the reference route of each family, looked up in the suite module, where
# WEAKENED patches it
EXHAUSTIVE_REFERENCES = {
    LambdaNuModel: "check_lambda_nu_via_convolution",
    TSpecModel: "check_tspec_pairwise",
}


def _exhaustive_mismatches(packets: int, ticks: int) -> tuple[int, int]:
    """The checks made and the mismatches among them, over every
    nondecreasing trace of at most ``packets`` packets on ticks 0..``ticks``
    and every model of EXHAUSTIVE_MODELS.  A check mismatches when the
    production checker's report is not the reference route's, or when the
    verdict alone (FIRST_VIOLATION) is not that report's witness."""
    checks = mismatches = 0
    for trace in _small_traces(packets, ticks):
        for model in EXHAUSTIVE_MODELS:
            family = type(model)
            report = conformance.CHECKERS[family](trace, model)
            reference = getattr(suite, EXHAUSTIVE_REFERENCES[family])(trace, model)
            first = conformance.FIRST_VIOLATION[family](trace, model)
            witness = report.witness
            checks += 1
            mismatches += (report != reference
                           or first != (witness and (witness.m, witness.n)))
    return checks, mismatches


# the bit-domain scope: allowances 0..5 bits at rates 1/2..2 bits a tick
EXHAUSTIVE_SIGMAS = [F(sigma) for sigma in (0, 1, 2, 3, 5)]
EXHAUSTIVE_RATES = [F(rho) for rho in ("1/2", "1", "3/2", "2")]


def _exhaustive_sigma_rho_mismatches(packets: int, ticks: int) -> tuple[int, int]:
    """The checks made and the mismatches among them, over every
    nondecreasing trace of at most ``packets`` packets on ticks 0..``ticks``
    with lengths 1 or 2.  Each trace is checked against every (sigma, rho)
    model, as _exhaustive_mismatches checks the packet domain, and fitted at
    every rate against ``reference.sigma_for_rate``.  The routes are looked
    up in the reference module, which the suite does not import them from."""
    checks = mismatches = 0
    for trace in _small_traces(packets, ticks, with_lengths=True):
        for sigma, rho in product(EXHAUSTIVE_SIGMAS, EXHAUSTIVE_RATES):
            model = SigmaRhoModel(sigma, rho)
            report = check_sigma_rho(trace, model)
            first = conformance.FIRST_VIOLATION[SigmaRhoModel](trace, model)
            witness = report.witness
            checks += 1
            mismatches += (report != reference.check_sigma_rho_pairwise(trace, model)
                           or first != (witness and (witness.m, witness.n)))
        for rho in EXHAUSTIVE_RATES:
            checks += 1
            mismatches += (conformance.fit_sigma_rho(trace, rho=rho).model.sigma
                           != reference.sigma_for_rate(trace, rho))
    return checks, mismatches


def _small_traces(packets: int, ticks: int, with_lengths: bool = False):
    """Every nondecreasing trace of at most ``packets`` packets on ticks
    0..``ticks``, with every choice of lengths 1 or 2 when ``with_lengths``."""
    for n in range(packets + 1):
        for arrivals in combinations_with_replacement(range(ticks + 1), n):
            for lengths in product((1, 2), repeat=n) if with_lengths else [None]:
                yield Trace(arrivals, lengths)


def _family_models(family) -> list:
    """The bounded-exhaustive model grid of one family."""
    if family is SigmaRhoModel:
        return [SigmaRhoModel(sigma, rho)
                for sigma, rho in product(EXHAUSTIVE_SIGMAS, EXHAUSTIVE_RATES)]
    return [model for model in EXHAUSTIVE_MODELS if type(model) is family]


def _conforming_flows(family, packets: int, ticks: int) -> list:
    """Every (model, trace) of the family's grid and the scope's traces, σ/ρ
    traces with lengths, in which the trace conforms to the model."""
    traces = list(_small_traces(packets, ticks, family is SigmaRhoModel))
    verdict = conformance.FIRST_VIOLATION[family]
    return [(model, trace) for model in _family_models(family) for trace in traces
            if verdict(trace, model) is None]


def _exhaustive_superposition_failures(family, packets: int, ticks: int) -> tuple[int, int]:
    """The checks made and the failures among them, over every ordered pair
    of conforming flows of one family: a check fails when the two merged do
    not conform to the sum of their models (``merge_conforms_to_sum``, which
    reads the sum from ``suite.SUPERPOSE``)."""
    flows = _conforming_flows(family, packets, ticks)
    failures = sum(merge_conforms_to_sum([m1, m2], [t1, t2]) is not None
                   for (m1, t1), (m2, t2) in product(flows, repeat=2))
    return len(flows) ** 2, failures


def _exhaustive_mapping_failures(packets: int, ticks: int) -> tuple[int, int]:
    """The checks made and the failures among them: every conforming λ/ν
    flow of the scope against its TSpec by both variants at j = 1..3, and
    every conforming TSpec flow against its rate/burst model.  The maps are
    looked up in the suite module, where WEAKENED patches them."""
    checks = []
    for model, trace in _conforming_flows(LambdaNuModel, packets, ticks):
        checks += [(trace, suite.map_lambda_nu_to_tspec(model, variant, j))
                   for variant in MappingVariant for j in (1, 2, 3)]
    checks += [(trace, suite.map_tspec_to_lambda_nu(tspec))
               for tspec, trace in _conforming_flows(TSpecModel, packets, ticks)]
    violation = conformance.FIRST_VIOLATION
    return len(checks), sum(violation[type(m)](t, m) is not None for t, m in checks)


def _exhaustive_order_failures(packets: int, ticks: int) -> tuple[int, int]:
    """The checks made and the failures among them, over every ordered list
    of 2 or 3 traces of the scope: a check fails when merging the flows
    rotated, or the first two first, gives other ticks
    (``merge_order_insensitive``, which merges through ``suite.merge_traces``)."""
    traces = list(_small_traces(packets, ticks))
    lists = [list(flows) for k in (2, 3) for flows in product(traces, repeat=k)]
    return len(lists), sum(suite.merge_order_insensitive(flows) is not None for flows in lists)


def _joined(traces):
    """A merge that lays the flows' ticks end to end, unsorted."""
    return Trace._of(sum((t.arrivals for t in traces), ()), None)


class TestBoundedExhaustive:
    def test_every_small_trace_against_every_model(self):
        # 792 traces of at most 5 packets on ticks 0..6, times 44 models
        assert _exhaustive_mismatches(5, 6) == (34_848, 0)

    @pytest.mark.parametrize("name, scope, caught", [
        ("check_lambda_nu_via_convolution", (2, 0), 12),
        ("check_tspec_pairwise", (1, 0), 10),
    ], ids=["nu-plus-1", "k_max-plus-1"])
    def test_weakened_reference_caught_at_its_smallest_scope(self, monkeypatch, name, scope,
                                                             caught):
        # the smallest scope is the fewest packets, then the fewest ticks,
        # at which the weakened reference mismatches: a burst allowance one
        # packet larger needs two packets on one tick, a budget one packet
        # larger only one
        monkeypatch.setattr(suite, name, WEAKENED[name])
        packets, ticks = scope
        assert _exhaustive_mismatches(packets, ticks)[1] == caught
        smaller = [(packets - 1, 6)] + ([(packets, ticks - 1)] if ticks else [])
        assert all(_exhaustive_mismatches(*s)[1] == 0 for s in smaller)

    def test_every_small_bit_trace_against_every_sigma_rho_model(self):
        # 799 traces of at most 3 packets on ticks 0..6 with lengths 1 or 2,
        # times 20 models and 4 fitted rates
        assert _exhaustive_sigma_rho_mismatches(3, 6) == (19_176, 0)

    def test_weakened_sigma_rho_reference_caught_on_the_empty_trace(self, monkeypatch):
        # one bit more of allowance leaves the empty trace's one window
        # [0, 0] untight at sigma = 0, at each of the 4 rates
        weakened = reference.check_sigma_rho_pairwise
        monkeypatch.setattr(reference, "check_sigma_rho_pairwise",
                            lambda t, m: weakened(t, SigmaRhoModel(m.sigma + 1, m.rho)))
        assert _exhaustive_sigma_rho_mismatches(0, 0) == (24, 4)

    def test_every_small_superposition(self):
        # every ordered pair of conforming flows of at most 2 packets on
        # ticks 0..1, σ/ρ flows with lengths 1 or 2
        assert [
            _exhaustive_superposition_failures(family, 2, 1)
            for family in (LambdaNuModel, TSpecModel, SigmaRhoModel)
        ] == [(12_996, 0), (8_281, 0), (34_225, 0)]

    @pytest.mark.parametrize("family, weak, scope, caught", [
        (LambdaNuModel, _no_slack, (1, 0), (2_304, 108)),
        (LambdaNuModel, WEAKENED_SUMS[LambdaNuModel], (2, 1), (12_996, 91)),
        (TSpecModel, WEAKENED_SUMS[TSpecModel], (1, 0), (1_600, 100)),
        (SigmaRhoModel, WEAKENED_SUMS[SigmaRhoModel], (1, 0), (2_304, 432)),
    ], ids=["no-slack", "lambda_nu-half-rate", "tspec-one-packet-less", "sigma_rho-half-sigma"])
    def test_weakened_sum_caught_at_its_smallest_scope(self, monkeypatch, family, weak, scope,
                                                       caught):
        # the paper's "+ (K - 1)" slack, the full TSpec budget and the full
        # σ/ρ allowance are each needed already by two one-packet flows on
        # tick 0; half the summed rate first shows on two packets a tick apart
        monkeypatch.setitem(suite.SUPERPOSE, family, weak)
        packets, ticks = scope
        assert _exhaustive_superposition_failures(family, packets, ticks) == caught
        smaller = [(packets - 1, 6)] + ([(packets, ticks - 1)] if ticks else [])
        assert all(_exhaustive_superposition_failures(family, *s)[1] == 0 for s in smaller)

    def test_every_small_trace_through_both_mappings(self):
        # the 792 traces of at most 5 packets on ticks 0..6, each against
        # the models it conforms to, mapped into the other family
        assert _exhaustive_mapping_failures(5, 6) == (36_555, 0)

    @pytest.mark.parametrize("name, scope, caught", [
        ("map_lambda_nu_to_tspec", (2, 0), (410, 6)),
        ("map_tspec_to_lambda_nu", (2, 1), (775, 1)),
    ], ids=["tspec-one-packet-less", "lambda_nu-half-rate"])
    def test_weakened_mapping_caught_at_its_smallest_scope(self, monkeypatch, name, scope,
                                                           caught):
        # a budget one packet short first shows on two packets on one tick,
        # half the rate on two packets a tick apart
        monkeypatch.setattr(suite, name, WEAKENED[name])
        packets, ticks = scope
        assert _exhaustive_mapping_failures(packets, ticks) == caught
        smaller = [(packets - 1, 6)] + ([(packets, ticks - 1)] if ticks else [])
        assert all(_exhaustive_mapping_failures(*s)[1] == 0 for s in smaller)

    def test_every_small_merge_order(self):
        # every ordered list of 2 or 3 of the 6 traces of at most 2 packets
        # on ticks 0..1: 36 + 216 lists
        assert _exhaustive_order_failures(2, 1) == (252, 0)

    def test_unsorted_merge_caught_by_two_one_packet_flows(self, monkeypatch):
        # flows joined without sorting first differ from their rotation on
        # two one-packet flows on different ticks
        monkeypatch.setattr(suite, "merge_traces", _joined)
        assert _exhaustive_order_failures(1, 1) == (36, 12)
        assert all(_exhaustive_order_failures(*s)[1] == 0 for s in [(0, 6), (1, 0)])
