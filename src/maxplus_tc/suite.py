"""Seeded randomized validation suite.

Every documented soundness and equivalence property of the package is
exercised here over randomized traces and models, with all verdicts exact.
The suite is fully deterministic for a given configuration: the machine
summary (:meth:`SuiteSummary.to_json_dict`) contains no timing and is
byte-identical across runs; wall-clock times are carried separately for the
human-readable rendering.

A failure never aborts the run, not even a generator's wrong fit (no
generator checks its own output); it is recorded as a serialized
counterexample in the property's report and reflected in the exit status of
the CLI wrapper.

Each property, and each public predicate for an invariant the hypothesis
tests share (None when it holds), returns its failure record as
``_failure(...)`` of raw values: that encoder is the one place a record
shows a trace, a report, a model, a rational or an enum.  The property and
the test feed a predicate their own draws.  :func:`merge_conforms_to_sum`
is the superposition property of each family in ``algebra.SUPERPOSE`` and
``conformance.CHECKERS``; ``MaxPlusCurve`` is to be one more entry in each.
A verdict is read from ``conformance.FIRST_VIOLATION`` (:func:`_conforms`),
which counts no tight pair; only a failure computes the full report.  The
differential routes compare reports as records, so only a mismatch is
encoded.  Reference routes serve only as the slow side of a differential
property, never to build a trial's inputs.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from itertools import compress

from ._record import Record
from .aggregation import merge_traces
from .algebra import (
    SUPERPOSE,
    curve_to_lambda_nu,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
    superpose_indirect,
    superpose_lambda_nu,
)
from .conformance import (
    CHECKERS,
    FIRST_VIOLATION,
    ConformanceReport,
    check_lambda_nu,
    check_tspec,
    fit_lambda_nu,
    fit_sigma_rho,
    fit_tspec,
    report_to_json,
)
from .errors import InfeasibleFitError, UnboundedFitError
from .generators import (
    Lcg64,
    gen_extremal_lambda_nu,
    gen_jittered,
    gen_periodic,
    gen_tspec_extremal,
)
from .models import (
    LambdaNuModel,
    MaxPlusCurve,
    TSpecModel,
    WindowMode,
    model_to_json,
)
from .reference import (
    aggregate_eq1,
    check_lambda_nu_via_convolution,
    check_tspec_pairwise,
)
from .trace import Trace

_MAX_FAILURES_PER_PROPERTY = 25
_SEED_MIX = 0x9E3779B97F4A7C15
_SHOWN_TICKS = 60  # a failure record shows the first ticks of a trace
_KEEP_PERCENT = 75  # the percentage of packets _thin keeps, on average


class SuiteConfig(Record):
    __slots__ = ("seed", "trials", "max_flows", "max_packets")

    def __init__(self, seed: int = 1729, trials: int = 200, max_flows: int = 5,
                 max_packets: int = 500):
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        if max_flows < 2:
            raise ValueError(f"max_flows must be >= 2, got {max_flows}")
        if max_packets < 1:
            raise ValueError(f"max_packets must be >= 1, got {max_packets}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "max_flows", max_flows)
        object.__setattr__(self, "max_packets", max_packets)


class PropertyReport(Record):
    __slots__ = ("name", "trials", "failures", "elapsed")  # elapsed (s): not in machine summary

    @property
    def passed(self) -> bool:
        return not self.failures


class SuiteSummary(Record):
    __slots__ = ("config", "properties", "elapsed")

    @property
    def failures_total(self) -> int:
        return sum(len(p.failures) for p in self.properties)

    @property
    def warning(self) -> str | None:
        if self.config.trials == 0:
            return "trials=0: every property passes vacuously"
        return None

    def to_json_dict(self) -> dict:
        """Deterministic machine summary (no timing)."""
        return {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "max_flows": self.config.max_flows,
                "max_packets": self.config.max_packets,
            },
            "properties": [
                {
                    "name": p.name,
                    "trials": p.trials,
                    "failures": list(p.failures),
                }
                for p in self.properties
            ],
            "failures_total": self.failures_total,
            "warning": self.warning,
        }

    def render_text(self) -> str:
        lines = [
            f"seed={self.config.seed} trials={self.config.trials} "
            f"max_flows={self.config.max_flows} max_packets={self.config.max_packets}"
        ]
        if self.warning:
            lines.append(f"warning: {self.warning}")
        for p in self.properties:
            status = "pass" if p.passed else f"FAIL ({len(p.failures)} failures)"
            lines.append(
                f"{p.name:<40} {p.trials:>5} trials  {p.elapsed * 1000:8.1f} ms  {status}"
            )
        lines.append(
            f"total: {self.failures_total} failures, {self.elapsed:.2f} s wall time"
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# failure records


def _trace_summary(trace: Trace) -> dict:
    out: dict = {"num_packets": len(trace), "ticks": list(trace.arrivals[:_SHOWN_TICKS])}
    if trace.lengths is not None:
        out["lengths"] = list(trace.lengths[:_SHOWN_TICKS])
    if len(trace) > _SHOWN_TICKS:
        out["truncated"] = True
    return out


def _shown(value):
    if isinstance(value, Trace):
        return _trace_summary(value)
    if isinstance(value, ConformanceReport):
        return report_to_json(value)
    if isinstance(value, Record):
        return model_to_json(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_shown(v) for v in value]
    return value


def _failure(**values) -> dict:
    """The failure record of ``values``, in the order given: a trace as its
    summary, a report or a model as its JSON, a rational as its string, an
    enum as its value, and a list or tuple element by element."""
    return {key: _shown(value) for key, value in values.items()}


def _report_mismatch(trace: Trace, model, key: str, **routes) -> dict | None:
    """None when the two checkers ``routes`` report alike on ``trace`` and
    ``model``, else the failure record with both reports."""
    reports = {name: route(trace, model) for name, route in routes.items()}
    first, second = reports.values()
    return None if first == second else _failure(trace=trace, **{key: model}, **reports)


def _conforms(trace: Trace, model) -> bool:
    """The verdict alone: no tight pair is counted."""
    return FIRST_VIOLATION[type(model)](trace, model) is None


def _violation(trace: Trace, model, /, **context) -> dict | None:
    """None when ``trace`` conforms to ``model``, else the failure record:
    ``context`` plus the full report."""
    if _conforms(trace, model):
        return None
    return _failure(**context, report=CHECKERS[type(model)](trace, model))


# ---------------------------------------------------------------------------
# randomized inputs


def _rand_rate_burst(rng: Lcg64) -> LambdaNuModel:
    lam = Fraction(rng.randint(1, 8), rng.randint(1, 64))
    nu = Fraction(rng.randint(0, 24), rng.randint(1, 4))
    return LambdaNuModel(lam=lam, nu=nu)


def _rand_tspec(rng: Lcg64) -> TSpecModel:
    return TSpecModel(
        tau=Fraction(rng.randint(1, 60)),
        k_max=rng.randint(1, 8),
        window_mode=rng.choice((WindowMode.CLOSED, WindowMode.OPEN)),
    )


def _shift(trace: Trace, by: int) -> Trace:
    return Trace._of(tuple(map(by.__add__, trace.arrivals)), trace.lengths)  # by >= 0


def _thin(rng: Lcg64, trace: Trace) -> Trace:
    kept = tuple(map(_KEEP_PERCENT.__gt__, rng.randints(0, 99, len(trace))))
    lengths = None if trace.lengths is None else tuple(compress(trace.lengths, kept))
    return Trace._of(tuple(compress(trace.arrivals, kept)), lengths)


def _conforming_rate_burst_trace(rng: Lcg64, model: LambdaNuModel, max_packets: int) -> Trace:
    """A trace guaranteed to conform to ``model``: boundary-tight, periodic,
    or jittered, optionally thinned and time-shifted (all conformance
    preserving)."""
    kinds = ["extremal", "periodic"]
    if model.nu >= 1:
        kinds.append("jittered")
    kind = rng.choice(kinds)
    base_period = -(-model.lam.denominator // model.lam.numerator)  # >= 1/lam
    if kind == "extremal":
        count = rng.randint(0, min(max_packets, 250))
        trace = gen_extremal_lambda_nu(model, count)
    elif kind == "periodic":
        period = base_period + rng.randint(0, base_period)
        trace = gen_periodic(period, rng.randint(0, 3 * period), rng.randint(0, max_packets))
    else:
        period = base_period + rng.randint(0, base_period)
        trace, _ = gen_jittered(
            period, rng.randint(0, period - 1), rng.next_u32(), rng.randint(0, max_packets)
        )
    if rng.randint(0, 3) == 0:
        trace = _thin(rng, trace)
    if rng.randint(0, 1) == 0:
        trace = _shift(trace, rng.randint(0, 1000))
    return trace


def _conforming_tspec_trace(rng: Lcg64, tspec: TSpecModel, max_packets: int) -> Trace:
    trace = gen_tspec_extremal(tspec, rng.randint(0, max_packets))
    if rng.randint(0, 2) == 0:
        trace = _thin(rng, trace)
    if rng.randint(0, 1) == 0:
        trace = _shift(trace, rng.randint(0, 1000))
    return trace


def _arbitrary_trace(rng: Lcg64, max_packets: int, with_lengths: bool = False) -> Trace:
    count = rng.randint(0, max_packets)
    arrivals = []
    tick = rng.randint(0, 20)
    for _ in range(count):
        arrivals.append(tick)
        if rng.randint(0, 2):
            tick += rng.randint(0, 30)
    lengths = tuple(rng.randints(1, 1000, count)) if with_lengths else None
    return Trace._of(tuple(arrivals), lengths)


def merge_conforms_to_sum(models: list, traces: list[Trace]) -> dict | None:
    """The superposition property: flows that conform to their models (all
    of one family) merge into a trace that conforms to the models' sum.
    None when it holds, else the failure record."""
    aggregate = SUPERPOSE[type(models[0])](models)
    return _violation(merge_traces(traces), aggregate, models=models, aggregate=aggregate,
                      traces=traces)


def lambda_nu_routes_agree(trace: Trace, model: LambdaNuModel) -> dict | None:
    """None when the pairwise check and the max-plus route agree, else the failure."""
    return _report_mismatch(trace, model, "model", pairwise=check_lambda_nu,
                            maxplus_route=check_lambda_nu_via_convolution)


def tspec_routes_agree(trace: Trace, tspec: TSpecModel) -> dict | None:
    """None when the window scan and the pairwise check agree, else the failure."""
    return _report_mismatch(trace, tspec, "tspec", window_scan=check_tspec,
                            pairwise=check_tspec_pairwise)


def merge_order_insensitive(traces: list[Trace]) -> dict | None:
    """None when merging the flows rotated, and (for three or more) the
    first two merged first, gives the same ticks, else the failure record."""
    merged = merge_traces(traces)
    others = {"rotated": merge_traces(traces[1:] + traces[:1])}
    if len(traces) > 2:
        others["nested"] = merge_traces([merge_traces(traces[:2]), *traces[2:]])
    for name, other in others.items():
        if other.arrivals != merged.arrivals:
            return _failure(traces=traces, merged=merged.arrivals[:_SHOWN_TICKS],
                            **{name: other.arrivals[:_SHOWN_TICKS]})
    return None


# ---------------------------------------------------------------------------
# properties


def _prop_pairwise_equals_maxplus_route(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))
    return lambda_nu_routes_agree(trace, _rand_rate_burst(rng))


def _prop_merge_conforms_to_direct_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models = [_rand_rate_burst(rng) for _ in range(flows)]
    traces = [_conforming_rate_burst_trace(rng, m, cfg.max_packets) for m in models]
    return merge_conforms_to_sum(models, traces)


def _prop_aligned_merge_attains_burst_bound(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    period = rng.randint(1, 100)
    count = rng.randint(1, max(1, cfg.max_packets // 2))
    flow = gen_periodic(period, 0, count)
    merged = merge_traces([flow, flow])
    fitted = fit_lambda_nu(merged, lam=Fraction(2, period))
    expected = superpose_lambda_nu(
        [LambdaNuModel(lam=Fraction(1, period), nu=Fraction(0))] * 2
    )
    if fitted.model.nu == expected.nu == 1:
        return None
    return _failure(period=period, count=count, fitted_nu=fitted.model.nu, expected_nu=expected.nu)


def _prop_rate_burst_maps_into_tspec(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = _rand_rate_burst(rng)
    trace = _conforming_rate_burst_trace(rng, model, min(cfg.max_packets, 300))
    for j in range(1, 6):
        for mode in WindowMode:
            tspec = map_lambda_nu_to_tspec(model, mode, j)
            failure = _violation(trace, tspec, model=model, j=j, window_mode=mode,
                                 tspec=tspec, trace=trace)
            if failure is not None:
                return failure
    return None


def _prop_tspec_maps_into_rate_burst(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    tspec = _rand_tspec(rng)
    trace = _conforming_tspec_trace(rng, tspec, min(cfg.max_packets, 400))
    model = map_tspec_to_lambda_nu(tspec)
    return _violation(trace, model, tspec=tspec, model=model, trace=trace)


def _prop_merge_conforms_to_tspec_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    tspecs = [_rand_tspec(rng) for _ in range(flows)]
    per_flow = max(1, min(cfg.max_packets, 400) // flows)
    traces = [_conforming_tspec_trace(rng, t, per_flow) for t in tspecs]
    return merge_conforms_to_sum(tspecs, traces)


def _prop_merge_conforms_to_bit_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models, traces = [], []
    for _ in range(flows):
        trace = _arbitrary_trace(rng, min(cfg.max_packets, 80), with_lengths=True)
        rho = Fraction(rng.randint(1, 500), rng.randint(1, 8))
        models.append(fit_sigma_rho(trace, rho=rho).model)
        traces.append(trace)
    return merge_conforms_to_sum(models, traces)


def _prop_composition_formula_matches_merge(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(1, 3)
    budget = 12
    traces = []
    for i in range(flows):
        take = rng.randint(0, budget) if i < flows - 1 else budget
        traces.append(_arbitrary_trace(rng, take))
        budget -= len(traces[-1])
    merged = merge_traces(traces)
    for n in range(len(merged) + 1):
        via_formula = aggregate_eq1(traces, n)
        via_merge = merged.arrival(n)
        if via_formula != via_merge:
            return _failure(traces=traces, n=n, composition_value=via_formula,
                            merge_value=via_merge)
    return None


def _prop_length_detour_never_beats_direct(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models = [_rand_rate_burst(rng) for _ in range(flows)]
    l_min = Fraction(rng.randint(1, 50), rng.randint(1, 4))
    lengths = [l_min + Fraction(rng.randint(0, 60), rng.randint(1, 4)) for _ in range(flows)]
    direct = superpose_lambda_nu(models)
    indirect = superpose_indirect(models, lengths, l_min)
    if indirect.lam >= direct.lam and indirect.nu > direct.nu:
        return None
    return _failure(models=models, lengths=lengths, min_length=l_min, direct=direct,
                    indirect=indirect)


def _prop_curve_reduction_stays_below_curve(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    horizon = rng.randint(1, 50)
    values = [Fraction(0)]
    for _ in range(horizon):  # each value is the last plus a step of a/b
        a, b = rng.randint(0, 12), rng.randint(1, 4)
        num, den = values[-1].numerator, values[-1].denominator
        values.append(Fraction(num * b + a * den, den * b))
    if values[-1] == 0:
        values[-1] = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    curve = MaxPlusCurve(values=tuple(values))
    model = curve_to_lambda_nu(curve)
    for d in range(horizon + 1):
        if model.min_spacing(d) > curve.values[d]:
            return _failure(curve=curve, model=model, d=d, envelope_bound=model.min_spacing(d),
                            curve_value=curve.values[d])
    return None


def _prop_fitted_envelopes_are_tight(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))

    lam = Fraction(rng.randint(1, 8), rng.randint(1, 64))
    fit = fit_lambda_nu(trace, lam=lam)
    if not _conforms(trace, fit.model):
        return _failure(trace=trace, stage="burst fit does not conform", model=fit.model)
    if fit.model.nu > 0:
        delta = fit.model.nu / rng.randint(2, 9)
        tightened = LambdaNuModel(lam=lam, nu=fit.model.nu - delta)
        if _conforms(trace, tightened):
            return _failure(trace=trace, stage="burst fit not minimal", model=tightened)
        if fit.binding_pair is not None:
            m, n = fit.binding_pair
            spacing = tightened.min_spacing(n - m)
            if Fraction(trace.arrivals[n - 1] - trace.arrivals[m - 1]) >= spacing:
                return _failure(trace=trace, stage="binding pair survives tightening", pair=[m, n])

    nu = Fraction(rng.randint(0, 12), rng.randint(1, 3))
    try:
        fit = fit_lambda_nu(trace, nu=nu)
    except InfeasibleFitError as exc:
        m, n = exc.pair
        if trace.arrivals[n - 1] != trace.arrivals[m - 1] or n - m <= nu:
            return _failure(trace=trace, stage="bogus infeasibility", pair=[m, n])
        return None
    except UnboundedFitError:
        probe = LambdaNuModel(lam=Fraction(1, 10**6), nu=nu)
        if not _conforms(trace, probe):
            return _failure(trace=trace, stage="bogus unboundedness")
        return None
    if not _conforms(trace, fit.model):
        return _failure(trace=trace, stage="rate fit does not conform", model=fit.model)
    delta = fit.model.lam / rng.randint(2, 9)
    tightened = LambdaNuModel(lam=fit.model.lam - delta, nu=nu)
    if _conforms(trace, tightened):
        return _failure(trace=trace, stage="rate fit not minimal", model=tightened)

    tau = Fraction(rng.randint(1, 40))
    mode = rng.choice((WindowMode.CLOSED, WindowMode.OPEN))
    tfit = fit_tspec(trace, tau, mode)
    if not _conforms(trace, tfit.model):
        return _failure(trace=trace, stage="window fit does not conform", model=tfit.model)
    if tfit.model.k_max > 1:
        smaller = TSpecModel(tau=tau, k_max=tfit.model.k_max - 1, window_mode=mode)
        if _conforms(trace, smaller) and len(trace) > 0:
            return _failure(trace=trace, stage="window fit not minimal", model=smaller)
    return None


def _prop_window_scan_equals_pairwise_windows(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))
    return tspec_routes_agree(trace, _rand_tspec(rng))


def _prop_looser_models_stay_conforming(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = _rand_rate_burst(rng)
    trace = _conforming_rate_burst_trace(rng, model, min(cfg.max_packets, 200))
    looser = LambdaNuModel(
        lam=model.lam * (1 + Fraction(rng.randint(0, 8), 4)),
        nu=model.nu + Fraction(rng.randint(0, 8), 2),
    )
    if not _conforms(trace, looser):
        return _failure(model=model, looser=looser, trace=trace)
    tspec = _rand_tspec(rng)
    ttrace = _conforming_tspec_trace(rng, tspec, min(cfg.max_packets, 200))
    shorter = TSpecModel(
        tau=tspec.tau / rng.randint(1, 4),
        k_max=tspec.k_max + rng.randint(0, 3),
        window_mode=tspec.window_mode,
    )
    if not _conforms(ttrace, shorter):
        return _failure(tspec=tspec, looser=shorter, trace=ttrace)
    return None


def _prop_mapping_roundtrip_scales_rate(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = LambdaNuModel(
        lam=Fraction(rng.randint(1, 12), rng.randint(1, 48)),
        nu=Fraction(rng.randint(0, 20)),
    )
    tspec = map_lambda_nu_to_tspec(model, WindowMode.OPEN, 1)
    back = map_tspec_to_lambda_nu(tspec)
    if back.lam == (model.nu + 1) * model.lam and back.nu == model.nu:
        return None
    return _failure(model=model, tspec=tspec, roundtrip=back)


def _prop_merge_is_order_insensitive(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, 3)
    return merge_order_insensitive([_arbitrary_trace(rng, 40) for _ in range(flows)])


def _prop_generators_pass_their_checkers(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    period = rng.randint(1, 60)
    count = rng.randint(0, min(cfg.max_packets, 200))
    periodic = gen_periodic(period, rng.randint(0, 100), count)
    model = LambdaNuModel(lam=Fraction(1, period), nu=Fraction(0))
    if not _conforms(periodic, model):
        return _failure(stage="periodic", period=period, trace=periodic)

    rb = _rand_rate_burst(rng)
    extremal = gen_extremal_lambda_nu(rb, rng.randint(0, 150))
    if not _conforms(extremal, rb):
        return _failure(stage="extremal", model=rb, trace=extremal)
    if rb.nu.denominator == 1 and len(extremal) >= rb.nu + 2:
        refit = fit_lambda_nu(extremal, lam=rb.lam)
        if refit.model.nu != rb.nu:
            return _failure(stage="extremal tightness", model=rb, fitted_nu=refit.model.nu)

    tspec = _rand_tspec(rng)
    bursts = gen_tspec_extremal(tspec, rng.randint(0, 200))
    if not _conforms(bursts, tspec):
        return _failure(stage="tspec bursts", tspec=tspec, trace=bursts)

    period = rng.randint(1, 60)
    trace, fitted = gen_jittered(
        period, rng.randint(0, period - 1), rng.next_u32(), rng.randint(0, 200)
    )
    if not _conforms(trace, fitted):
        return _failure(stage="jittered", model=fitted, trace=trace)
    return None


PROPERTIES: tuple[tuple[str, Callable[[Lcg64, SuiteConfig], dict | None]], ...] = (
    ("pairwise_equals_maxplus_route", _prop_pairwise_equals_maxplus_route),
    ("merge_conforms_to_direct_sum", _prop_merge_conforms_to_direct_sum),
    ("aligned_merge_attains_burst_bound", _prop_aligned_merge_attains_burst_bound),
    ("rate_burst_maps_into_tspec", _prop_rate_burst_maps_into_tspec),
    ("tspec_maps_into_rate_burst", _prop_tspec_maps_into_rate_burst),
    ("merge_conforms_to_tspec_sum", _prop_merge_conforms_to_tspec_sum),
    ("merge_conforms_to_bit_sum", _prop_merge_conforms_to_bit_sum),
    ("composition_formula_matches_merge", _prop_composition_formula_matches_merge),
    ("length_detour_never_beats_direct", _prop_length_detour_never_beats_direct),
    ("curve_reduction_stays_below_curve", _prop_curve_reduction_stays_below_curve),
    ("fitted_envelopes_are_tight", _prop_fitted_envelopes_are_tight),
    ("window_scan_equals_pairwise_windows", _prop_window_scan_equals_pairwise_windows),
    ("looser_models_stay_conforming", _prop_looser_models_stay_conforming),
    ("mapping_roundtrip_scales_rate", _prop_mapping_roundtrip_scales_rate),
    ("merge_is_order_insensitive", _prop_merge_is_order_insensitive),
    ("generators_pass_their_checkers", _prop_generators_pass_their_checkers),
)

PROPERTY_NAMES = tuple(name for name, _ in PROPERTIES)


def _property_seed(seed: int, index: int) -> int:
    return seed * _SEED_MIX + index + 1  # Lcg64 keeps the low 64 bits


def run_property(name: str, seed: int, trials: int, cfg: SuiteConfig) -> PropertyReport:
    """Run one named property for a given number of trials."""
    fn = dict(PROPERTIES).get(name)
    if fn is None:
        raise KeyError(f"unknown property {name!r}")
    index = PROPERTY_NAMES.index(name)
    rng = Lcg64(_property_seed(seed, index))
    failures: list[dict] = []
    start = time.perf_counter()
    for trial in range(trials):
        outcome = fn(rng, cfg)
        if outcome is not None and len(failures) < _MAX_FAILURES_PER_PROPERTY:
            failures.append({"trial": trial, **outcome})
    return PropertyReport(
        name=name,
        trials=trials,
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )


def _workers() -> int:
    """A process per CPU this one may use, up to one per property, else one."""
    try:  # a forked child would lack another thread, and any lock it holds
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        return min(len(os.sched_getaffinity(0)), len(PROPERTIES)) if alone else 1
    except (AttributeError, OSError):  # no affinity call or no /proc
        return 1


def run_property_suite(cfg: SuiteConfig) -> SuiteSummary:
    """Run every property with the configured trial count on ``_workers()`` processes."""
    start = time.perf_counter()
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(PROPERTIES))))  # < PIPE_BUF: a 1-byte read takes one index
    os.close(feed)
    def drain():  # each property has its own seed: the process it runs in changes only elapsed
        return {i: run_property(PROPERTY_NAMES[i], cfg.seed, cfg.trials, cfg)
                for [i] in iter(lambda: os.read(queue, 1), b"")}
    children, sent = {}, {}  # by pid: its pipe's read end; what it sent and its exit status
    try:
        for _ in range(_workers() - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # as at the process limit: run on with the workers there are
                os.close(out)
                os.close(into)
                break
            if pid == 0:  # the child sends its reports, or what a property raised
                try:
                    try:
                        outcome = drain()
                    except Exception as exc:
                        outcome = exc
                    with open(into, "wb") as fh:
                        fh.write(pickle.dumps(outcome))
                finally:  # never the parent's atexit handlers or stdout flush
                    os._exit(0)
            os.close(into)
            children[pid] = open(out, "rb")
        reports = drain()
    finally:
        os.close(queue)
        for pid, fh in children.items():  # read to the end first: a worker waits on a full pipe
            with fh:
                sent[pid] = fh.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, (data, status) in sent.items():
        outcome = pickle.loads(data) if data and not status else RuntimeError(
            f"suite worker {pid} sent no reports (exit status {status})")
        if isinstance(outcome, Exception):
            raise outcome
        reports.update(outcome)
    return SuiteSummary(cfg, tuple(map(reports.get, sorted(reports))), time.perf_counter() - start)
