"""Seeded randomized validation suite.

Every documented soundness and equivalence property of the package is
exercised here over randomized traces and models, with all verdicts exact.
The suite is fully deterministic for a given configuration: the machine
summary (:meth:`SuiteSummary.to_json_dict`) contains no timing and is
byte-identical across runs; wall-clock times are carried separately for the
human-readable rendering.

A failure never aborts the run; it is recorded as a serialized
counterexample in the property's report and reflected in the exit status of
the CLI wrapper.

Trials pay only for what they read: a check read for its verdict passes
``max_tight=0`` and lists no tight pairs, and a failure record that shows
the report recomputes it in full.  Reference routes serve only as the slow
side of a differential property, never to build a trial's inputs.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction

from ._record import Record
from .aggregation import merge_traces
from .algebra import (
    curve_to_lambda_nu,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
    superpose_indirect,
    superpose_lambda_nu,
    superpose_sigma_rho,
    superpose_tspec,
)
from .conformance import (
    ConformanceReport,
    check_lambda_nu,
    check_sigma_rho,
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
    IndirectInputs,
    LambdaNuModel,
    MappingVariant,
    MaxPlusCurve,
    TSpecModel,
    WindowMode,
    model_to_json,
)
from .rational import ceil_div
from .reference import (
    aggregate_eq1,
    check_lambda_nu_via_convolution,
    check_tspec_pairwise,
)
from .trace import Trace

_MAX_FAILURES_PER_PROPERTY = 25
_SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

DEFAULT_SEED = 1729


class SuiteConfig(Record):
    __slots__ = ("seed", "trials", "max_flows", "max_packets")

    def __init__(self, seed: int = DEFAULT_SEED, trials: int = 200, max_flows: int = 5,
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
    __slots__ = ("name", "trials", "failures", "elapsed")

    def __init__(self, name: str, trials: int, failures: tuple[dict, ...], elapsed: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "elapsed", elapsed)  # seconds; not in the machine summary

    @property
    def passed(self) -> bool:
        return not self.failures


class SuiteSummary(Record):
    __slots__ = ("config", "properties", "elapsed")

    def __init__(self, config: SuiteConfig, properties: tuple[PropertyReport, ...],
                 elapsed: float):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "elapsed", elapsed)

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
# randomized inputs


def _trace_summary(trace: Trace, limit: int = 60) -> dict:
    out: dict = {"num_packets": trace.num_packets, "ticks": list(trace.arrivals[:limit])}
    if trace.lengths is not None:
        out["lengths"] = list(trace.lengths[:limit])
    if trace.num_packets > limit:
        out["truncated"] = True
    return out


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
    return Trace(arrivals=tuple(a + by for a in trace.arrivals), lengths=trace.lengths)


def _thin(rng: Lcg64, trace: Trace, keep_percent: int = 75) -> Trace:
    kept = [i for i in range(trace.num_packets) if rng.randint(0, 99) < keep_percent]
    lengths = None
    if trace.lengths is not None:
        lengths = tuple(trace.lengths[i] for i in kept)
    return Trace(arrivals=tuple(trace.arrivals[i] for i in kept), lengths=lengths)


def _conforming_rate_burst_trace(rng: Lcg64, model: LambdaNuModel, max_packets: int) -> Trace:
    """A trace guaranteed to conform to ``model``: boundary-tight, periodic,
    or jittered, optionally thinned and time-shifted (all conformance
    preserving)."""
    kinds = ["extremal", "periodic"]
    if model.nu >= 1:
        kinds.append("jittered")
    kind = rng.choice(kinds)
    base_period = ceil_div(model.lam.denominator, model.lam.numerator)  # >= 1/lam
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
    lengths = tuple(rng.randint(1, 1000) for _ in range(count)) if with_lengths else None
    return Trace(arrivals=tuple(arrivals), lengths=lengths)


def _report_mismatch(
    context: dict, fast_name: str, fast: ConformanceReport, slow_name: str, slow: ConformanceReport
) -> dict | None:
    """None when a fast checker's report equals its reference's, else the
    failure record: ``context`` plus both reports."""
    fast_json, slow_json = report_to_json(fast), report_to_json(slow)
    if fast_json == slow_json:
        return None
    return {**context, fast_name: fast_json, slow_name: slow_json}


# ---------------------------------------------------------------------------
# properties


def _prop_pairwise_equals_maxplus_route(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))
    model = _rand_rate_burst(rng)
    return _report_mismatch(
        {"trace": _trace_summary(trace), "model": model_to_json(model)},
        "pairwise", check_lambda_nu(trace, model),
        "maxplus_route", check_lambda_nu_via_convolution(trace, model),
    )


def _prop_merge_conforms_to_direct_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models = [_rand_rate_burst(rng) for _ in range(flows)]
    traces = [_conforming_rate_burst_trace(rng, m, cfg.max_packets) for m in models]
    merged = merge_traces(traces)
    aggregate = superpose_lambda_nu(models)
    if check_lambda_nu(merged, aggregate, max_tight=0).conforms:
        return None
    return {
        "models": [model_to_json(m) for m in models],
        "traces": [_trace_summary(t) for t in traces],
        "aggregate": model_to_json(aggregate),
        "report": report_to_json(check_lambda_nu(merged, aggregate)),
    }


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
    return {
        "period": period,
        "count": count,
        "fitted_nu": str(fitted.model.nu),
        "expected_nu": str(expected.nu),
    }


def _prop_rate_burst_maps_into_tspec(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = _rand_rate_burst(rng)
    trace = _conforming_rate_burst_trace(rng, model, min(cfg.max_packets, 300))
    for j in range(1, 6):
        for variant in (MappingVariant.A, MappingVariant.B):
            tspec = map_lambda_nu_to_tspec(model, variant, j)
            if not check_tspec(trace, tspec, max_tight=0).conforms:
                return {
                    "model": model_to_json(model),
                    "j": j,
                    "variant": variant.value,
                    "tspec": model_to_json(tspec),
                    "trace": _trace_summary(trace),
                    "report": report_to_json(check_tspec(trace, tspec)),
                }
    return None


def _prop_tspec_maps_into_rate_burst(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    tspec = _rand_tspec(rng)
    trace = _conforming_tspec_trace(rng, tspec, min(cfg.max_packets, 400))
    model = map_tspec_to_lambda_nu(tspec)
    if check_lambda_nu(trace, model, max_tight=0).conforms:
        return None
    return {
        "tspec": model_to_json(tspec),
        "model": model_to_json(model),
        "trace": _trace_summary(trace),
        "report": report_to_json(check_lambda_nu(trace, model)),
    }


def _prop_merge_conforms_to_tspec_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    tspecs = [_rand_tspec(rng) for _ in range(flows)]
    per_flow = max(1, min(cfg.max_packets, 400) // flows)
    traces = [_conforming_tspec_trace(rng, t, per_flow) for t in tspecs]
    merged = merge_traces(traces)
    aggregate = superpose_tspec(tspecs)
    if check_tspec(merged, aggregate, max_tight=0).conforms:
        return None
    return {
        "tspecs": [model_to_json(t) for t in tspecs],
        "aggregate": model_to_json(aggregate),
        "traces": [_trace_summary(t) for t in traces],
        "report": report_to_json(check_tspec(merged, aggregate)),
    }


def _prop_merge_conforms_to_bit_sum(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models = []
    traces = []
    for _ in range(flows):
        trace = _arbitrary_trace(rng, min(cfg.max_packets, 80), with_lengths=True)
        rho = Fraction(rng.randint(1, 500), rng.randint(1, 8))
        models.append(fit_sigma_rho(trace, rho=rho).model)
        traces.append(trace)
    merged = merge_traces(traces)
    aggregate = superpose_sigma_rho(models)
    if check_sigma_rho(merged, aggregate, max_tight=0).conforms:
        return None
    return {
        "models": [model_to_json(m) for m in models],
        "aggregate": model_to_json(aggregate),
        "traces": [_trace_summary(t) for t in traces],
        "report": report_to_json(check_sigma_rho(merged, aggregate)),
    }


def _prop_composition_formula_matches_merge(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(1, 3)
    budget = 12
    traces = []
    for i in range(flows):
        take = rng.randint(0, budget) if i < flows - 1 else budget
        traces.append(_arbitrary_trace(rng, take))
        budget -= traces[-1].num_packets
    merged = merge_traces(traces)
    for n in range(merged.num_packets + 1):
        via_formula = aggregate_eq1(traces, n)
        via_merge = merged.arrival(n)
        if via_formula != via_merge:
            return {
                "traces": [_trace_summary(t) for t in traces],
                "n": n,
                "composition_value": via_formula,
                "merge_value": via_merge,
            }
    return None


def _prop_length_detour_never_beats_direct(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, cfg.max_flows)
    models = [_rand_rate_burst(rng) for _ in range(flows)]
    l_min = Fraction(rng.randint(1, 50), rng.randint(1, 4))
    lengths = [l_min + Fraction(rng.randint(0, 60), rng.randint(1, 4)) for _ in range(flows)]
    inputs = IndirectInputs(
        models=tuple(models), max_lengths=tuple(lengths), min_length=l_min
    )
    direct = superpose_lambda_nu(models)
    indirect = superpose_indirect(inputs)
    if indirect.lam >= direct.lam and indirect.nu > direct.nu:
        return None
    return {
        "models": [model_to_json(m) for m in models],
        "lengths": [str(l) for l in lengths],
        "min_length": str(l_min),
        "direct": model_to_json(direct),
        "indirect": model_to_json(indirect),
    }


def _prop_curve_reduction_stays_below_curve(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    horizon = rng.randint(1, 50)
    values = [Fraction(0)]
    for _ in range(horizon):
        step = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        values.append(values[-1] + step)
    if values[-1] == 0:
        values[-1] = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    curve = MaxPlusCurve(values=tuple(values))
    reduction = curve_to_lambda_nu(curve)
    model = reduction.model
    for d in range(horizon + 1):
        if model.min_spacing(d) > curve.values[d]:
            return {
                "curve": model_to_json(curve),
                "model": model_to_json(model),
                "d": d,
                "envelope_bound": str(model.min_spacing(d)),
                "curve_value": str(curve.values[d]),
            }
    return None


def _prop_fitted_envelopes_are_tight(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))
    ctx: dict = {"trace": _trace_summary(trace)}

    lam = Fraction(rng.randint(1, 8), rng.randint(1, 64))
    fit = fit_lambda_nu(trace, lam=lam)
    if not check_lambda_nu(trace, fit.model, max_tight=0).conforms:
        return {**ctx, "stage": "burst fit does not conform", "model": model_to_json(fit.model)}
    if fit.model.nu > 0:
        delta = fit.model.nu / rng.randint(2, 9)
        tightened = LambdaNuModel(lam=lam, nu=fit.model.nu - delta)
        if check_lambda_nu(trace, tightened, max_tight=0).conforms:
            return {**ctx, "stage": "burst fit not minimal", "model": model_to_json(tightened)}
        if fit.binding_pair is not None:
            m, n = fit.binding_pair
            spacing = tightened.min_spacing(n - m)
            if Fraction(trace.arrivals[n - 1] - trace.arrivals[m - 1]) >= spacing:
                return {**ctx, "stage": "binding pair survives tightening", "pair": [m, n]}

    nu = Fraction(rng.randint(0, 12), rng.randint(1, 3))
    try:
        fit = fit_lambda_nu(trace, nu=nu)
    except InfeasibleFitError as exc:
        m, n = exc.pair
        if trace.arrivals[n - 1] != trace.arrivals[m - 1] or n - m <= nu:
            return {**ctx, "stage": "bogus infeasibility", "pair": [m, n]}
        return None
    except UnboundedFitError:
        probe = LambdaNuModel(lam=Fraction(1, 10**6), nu=nu)
        if not check_lambda_nu(trace, probe, max_tight=0).conforms:
            return {**ctx, "stage": "bogus unboundedness"}
        return None
    if not check_lambda_nu(trace, fit.model, max_tight=0).conforms:
        return {**ctx, "stage": "rate fit does not conform", "model": model_to_json(fit.model)}
    delta = fit.model.lam / rng.randint(2, 9)
    tightened = LambdaNuModel(lam=fit.model.lam - delta, nu=nu)
    if check_lambda_nu(trace, tightened, max_tight=0).conforms:
        return {**ctx, "stage": "rate fit not minimal", "model": model_to_json(tightened)}

    tau = Fraction(rng.randint(1, 40))
    mode = rng.choice((WindowMode.CLOSED, WindowMode.OPEN))
    tfit = fit_tspec(trace, tau, mode)
    if not check_tspec(trace, tfit.model, max_tight=0).conforms:
        return {**ctx, "stage": "window fit does not conform", "model": model_to_json(tfit.model)}
    if tfit.model.k_max > 1:
        smaller = TSpecModel(tau=tau, k_max=tfit.model.k_max - 1, window_mode=mode)
        if check_tspec(trace, smaller, max_tight=0).conforms and trace.num_packets > 0:
            return {**ctx, "stage": "window fit not minimal", "model": model_to_json(smaller)}
    return None


def _prop_window_scan_equals_pairwise_windows(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    trace = _arbitrary_trace(rng, min(cfg.max_packets, 120))
    tspec = _rand_tspec(rng)
    return _report_mismatch(
        {"trace": _trace_summary(trace), "tspec": model_to_json(tspec)},
        "window_scan", check_tspec(trace, tspec),
        "pairwise", check_tspec_pairwise(trace, tspec),
    )


def _prop_looser_models_stay_conforming(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = _rand_rate_burst(rng)
    trace = _conforming_rate_burst_trace(rng, model, min(cfg.max_packets, 200))
    looser = LambdaNuModel(
        lam=model.lam * (1 + Fraction(rng.randint(0, 8), 4)),
        nu=model.nu + Fraction(rng.randint(0, 8), 2),
    )
    if not check_lambda_nu(trace, looser, max_tight=0).conforms:
        return {
            "model": model_to_json(model),
            "looser": model_to_json(looser),
            "trace": _trace_summary(trace),
        }
    tspec = _rand_tspec(rng)
    ttrace = _conforming_tspec_trace(rng, tspec, min(cfg.max_packets, 200))
    shorter = TSpecModel(
        tau=tspec.tau / rng.randint(1, 4),
        k_max=tspec.k_max + rng.randint(0, 3),
        window_mode=tspec.window_mode,
    )
    if not check_tspec(ttrace, shorter, max_tight=0).conforms:
        return {
            "tspec": model_to_json(tspec),
            "looser": model_to_json(shorter),
            "trace": _trace_summary(ttrace),
        }
    return None


def _prop_mapping_roundtrip_scales_rate(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    model = LambdaNuModel(
        lam=Fraction(rng.randint(1, 12), rng.randint(1, 48)),
        nu=Fraction(rng.randint(0, 20)),
    )
    tspec = map_lambda_nu_to_tspec(model, MappingVariant.B, 1)
    back = map_tspec_to_lambda_nu(tspec)
    if back.lam == (model.nu + 1) * model.lam and back.nu == model.nu:
        return None
    return {
        "model": model_to_json(model),
        "tspec": model_to_json(tspec),
        "roundtrip": model_to_json(back),
    }


def _prop_merge_is_order_insensitive(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    flows = rng.randint(2, 3)
    traces = [_arbitrary_trace(rng, 40) for _ in range(flows)]
    merged = merge_traces(traces)
    rotated = merge_traces(traces[1:] + traces[:1])
    if merged.arrivals != rotated.arrivals:
        return {
            "traces": [_trace_summary(t) for t in traces],
            "merged": list(merged.arrivals[:60]),
            "rotated": list(rotated.arrivals[:60]),
        }
    if flows == 3:
        nested = merge_traces([merge_traces(traces[:2]), traces[2]])
        if nested.arrivals != merged.arrivals:
            return {
                "traces": [_trace_summary(t) for t in traces],
                "merged": list(merged.arrivals[:60]),
                "nested": list(nested.arrivals[:60]),
            }
    return None


def _prop_generators_pass_their_checkers(rng: Lcg64, cfg: SuiteConfig) -> dict | None:
    period = rng.randint(1, 60)
    count = rng.randint(0, min(cfg.max_packets, 200))
    periodic = gen_periodic(period, rng.randint(0, 100), count)
    model = LambdaNuModel(lam=Fraction(1, period), nu=Fraction(0))
    if not check_lambda_nu(periodic, model, max_tight=0).conforms:
        return {"stage": "periodic", "period": period, "trace": _trace_summary(periodic)}

    rb = _rand_rate_burst(rng)
    extremal = gen_extremal_lambda_nu(rb, rng.randint(0, 150))
    if not check_lambda_nu(extremal, rb, max_tight=0).conforms:
        return {"stage": "extremal", "model": model_to_json(rb), "trace": _trace_summary(extremal)}
    if rb.nu.denominator == 1 and extremal.num_packets >= rb.nu + 2:
        refit = fit_lambda_nu(extremal, lam=rb.lam)
        if refit.model.nu != rb.nu:
            return {
                "stage": "extremal tightness",
                "model": model_to_json(rb),
                "fitted_nu": str(refit.model.nu),
            }

    tspec = _rand_tspec(rng)
    bursts = gen_tspec_extremal(tspec, rng.randint(0, 200))
    if not check_tspec(bursts, tspec, max_tight=0).conforms:
        return {"stage": "tspec bursts", "tspec": model_to_json(tspec), "trace": _trace_summary(bursts)}

    period = rng.randint(1, 60)
    trace, fitted = gen_jittered(
        period, rng.randint(0, period - 1), rng.next_u32(), rng.randint(0, 200)
    )
    if not check_lambda_nu(trace, fitted, max_tight=0).conforms:
        return {"stage": "jittered", "model": model_to_json(fitted), "trace": _trace_summary(trace)}
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
    return (seed * _SEED_MIX + index + 1) & _MASK64


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


def run_property_suite(cfg: SuiteConfig) -> SuiteSummary:
    """Run every property with the configured trial count."""
    start = time.perf_counter()
    reports = tuple(
        run_property(name, cfg.seed, cfg.trials, cfg) for name, _ in PROPERTIES
    )
    return SuiteSummary(
        config=cfg, properties=reports, elapsed=time.perf_counter() - start
    )
