"""Traced run: the workload's commands in this process, layer by layer.

Each command is replayed by calling the same public library functions the
CLI handler calls, in the same order, each under a span recorded here (no
code under ``src/`` is touched).  A span has a name, a start, an end, a
parent and a command id; spans stay in memory and are written to
``.perfbench_work/spans-<workload>-<seed>.json`` when the run ends.

Per-layer metrics:

* ``<layer>.s``: the layer's self time (span duration minus its children)
  in one pass of the workload, median over the traced passes.  A layer the
  workload never calls is timed instead on the sweep: every workload's
  commands once on small inputs, so each metric is measured on every run.
* ``<path>.n1000.s``, ``<path>.n10000.s``: the quadratic paths on a
  jittered trace of that many packets; ``<path>.exp`` is log4 of the time
  ratio between 2500 and 10000 packets.  Read and merge get ``.exp`` from
  25k and 100k packets.  Sizes of 10^5 and beyond are left out: the
  quadratic paths cannot finish them within a run today.
* counts from the workload pass; ``cli.import_s``; the tracing overhead
  (median over adjacent pairs of traced pass over untraced pass, minus 1)
  and the share of each command's span its child spans cover (the minimum
  over commands; the rest is the handler's own glue, such as freeing the
  report).
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
import types
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

import reference as ref
import workloads as wl

QUADRATIC = (
    "conformance.check_lambda_nu",
    "conformance.fit_lambda_nu.rate",
    "conformance.fit_lambda_nu.burst",
    "conformance.check_sigma_rho",
    "generators.gen_jittered",
    "generators.gen_extremal_lambda_nu",
)
LINEAR = ("trace.read_trace_csv", "aggregation.merge_traces_with_provenance")
LAYERS = QUADRATIC + (
    "conformance.check_tspec",
    "conformance.fit_tspec",
    "conformance.report_to_json",
    "cli.serialise",
    "trace.read_trace_csv",
    "trace.write_trace_csv",
    "aggregation.merge_traces_with_provenance",
) + tuple(f"suite.{name}" for name in wl.PROPERTY_NAMES)
COUNTS = ("conformance.checked_pairs", "conformance.tight_pairs", "cli.output_bytes", "trace.packets")
SWEEP = wl.Sizes(jittered=1000, generated=1000, periodic=200, flow_packets=1000, suite_trials=3)
MIN_PAIRS = 2
QUADRATIC_CHECKS = 6  # output checks per quadratic probe
IMPORT_CALLS = 5


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, cmd: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if cmd is None and parent is not None:
            cmd = self.spans[parent]["cmd"]
        record = {"id": len(self.spans), "name": name, "parent": parent, "cmd": cmd,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class NullTracer(Tracer):
    def span(self, name, cmd=None):
        return nullcontext()

    def count(self, name, value):
        pass


def _child_time(spans: list[dict]) -> dict[int, float]:
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return child


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the children's durations."""
    child = _child_time(spans)
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def coverage(spans: list[dict]) -> float:
    """Smallest share of a command span that its child spans cover."""
    child = _child_time(spans)
    roots = [s for s in spans if s["parent"] is None and s["name"].startswith("cli.")]
    return min(child.get(s["id"], 0.0) / (s["end"] - s["start"]) for s in roots)


# ---------------------------------------------------------------------------
# the CLI handlers, replayed on the library's public functions


def _emit(t: Tracer, obj, path: Path) -> None:
    with t.span("cli.serialise"):
        text = json.dumps(obj, indent=2) + "\n"
    with t.span("cli.write"):
        path.write_text(text, encoding="utf-8")
    t.count("cli.output_bytes", len(text.encode()))


def _write_trace(t: Tracer, lib, trace, path: Path) -> None:
    with t.span("trace.write_trace_csv"):
        text = lib.write_trace_csv(trace)
    with t.span("cli.write"):
        path.write_text(text, encoding="utf-8")
    t.count("cli.output_bytes", len(text.encode()))


def _read(t: Tracer, lib, path: str):
    with t.span("trace.read_trace_csv"):
        trace = lib.read_trace_csv(path)
    t.count("trace.packets", len(trace))
    return trace


def _check(cmd, lib, t) -> int:
    trace = _read(t, lib, cmd.opts["--trace"])
    with t.span("models.model_from_json"):
        with open(cmd.opts["--model"], encoding="utf-8") as fh:
            model = lib.model_from_json(json.load(fh))
    name, checker = {
        lib.LambdaNuModel: ("conformance.check_lambda_nu", lib.check_lambda_nu),
        lib.TSpecModel: ("conformance.check_tspec", lib.check_tspec),
        lib.SigmaRhoModel: ("conformance.check_sigma_rho", lib.check_sigma_rho),
    }[type(model)]
    with t.span(name):
        report = checker(trace, model)
    with t.span("conformance.report_to_json"):
        obj = lib.report_to_json(report)
    _emit(t, obj, cmd.stdout)
    t.count("conformance.checked_pairs", report.checked_pairs)
    t.count("conformance.tight_pairs", len(report.tight_pairs))
    return 0 if report.conforms else 1


def _fit(cmd, lib, t) -> int:
    trace = _read(t, lib, cmd.opts["--trace"])
    if "--rate" in cmd.opts:
        with t.span("conformance.fit_lambda_nu.rate"):
            result = lib.fit_lambda_nu(trace, lam=Fraction(cmd.opts["--rate"]))
    elif "--burst" in cmd.opts:
        with t.span("conformance.fit_lambda_nu.burst"):
            result = lib.fit_lambda_nu(trace, nu=Fraction(cmd.opts["--burst"]))
    else:
        with t.span("conformance.fit_tspec"):
            result = lib.fit_tspec(trace, Fraction(cmd.opts["--interval"]), lib.WindowMode.CLOSED)
    with t.span("conformance.fit_result_to_json"):
        obj = lib.fit_result_to_json(result)
    _emit(t, obj, cmd.stdout)
    return 0


def _generate(cmd, lib, t) -> int:
    o = cmd.opts
    count = int(o["--count"])
    fitted = None
    if o["--kind"] == "jittered":
        with t.span("generators.gen_jittered"):
            trace, fitted = lib.gen_jittered(int(o["--period"]), int(o["--jitter"]),
                                             int(o["--seed"]), count)
    else:
        model = lib.LambdaNuModel(lam=Fraction(o["--rate"]), nu=Fraction(o["--burst"]))
        with t.span("generators.gen_extremal_lambda_nu"):
            trace = lib.gen_extremal_lambda_nu(model, count)
    _write_trace(t, lib, trace, cmd.stdout)
    if fitted is not None:
        with t.span("cli.serialise"):
            text = json.dumps(lib.model_to_json(fitted), indent=2) + "\n"
        with t.span("cli.write"):
            Path(o["--model-out"]).write_text(text, encoding="utf-8")
    return 0


def _merge(cmd, lib, t) -> int:
    traces = [_read(t, lib, path) for path in cmd.opts["--traces"]]
    with t.span("aggregation.merge_traces_with_provenance"):
        merged, origins = lib.merge_traces_with_provenance(traces)
    _write_trace(t, lib, merged, cmd.stdout)
    with t.span("cli.serialise"):
        sidecar = {"packets": [{"flow": o.flow, "index": o.index} for o in origins]}
        text = json.dumps(sidecar, indent=2) + "\n"
    with t.span("cli.write"):
        Path(cmd.opts["--provenance"]).write_text(text, encoding="utf-8")
    return 0


def _suite(cmd, lib, t) -> int:
    seed, trials = int(cmd.opts["--seed"]), int(cmd.opts["--trials"])
    cfg = lib.SuiteConfig(seed=seed, trials=trials, max_packets=int(cmd.opts["--max-packets"]))
    reports = []
    for name in lib.PROPERTY_NAMES:
        with t.span(f"suite.{name}"):
            reports.append(lib.run_property(name, seed, trials, cfg))
    summary = lib.SuiteSummary(config=cfg, properties=tuple(reports), elapsed=0.0)
    _emit(t, summary.to_json_dict(), cmd.stdout)
    return 0 if summary.failures_total == 0 else 1


HANDLERS = {"check": _check, "fit": _fit, "generate": _generate, "merge": _merge, "suite": _suite}


def load_library(root: Path):
    """The checkout's maxplus_tc, as one namespace of public names."""
    sys.path.insert(0, str(root / "src"))
    import maxplus_tc
    from maxplus_tc import suite

    if not Path(maxplus_tc.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported maxplus_tc from {maxplus_tc.__file__}, not this checkout")
    return types.SimpleNamespace(**{
        name: getattr(module, name)
        for module in (maxplus_tc, suite) for name in dir(module) if not name.startswith("_")
    })


def in_process(lib, tracer: Tracer):
    """An executor for run.run_command that replays a command in-process."""

    def execute(cmd: wl.Command, env) -> tuple[int, float, float]:
        start = time.perf_counter()
        with tracer.span(f"cli.{cmd.sub}", cmd=cmd.cid):
            code = HANDLERS[cmd.sub](cmd, lib, tracer)
        return code, time.perf_counter() - start, 0.0

    return execute


# ---------------------------------------------------------------------------
# probes over input size


def _probe_quadratic(lib, t: Tracer, seed: int, n: int) -> list[str]:
    """Each quadratic path once on n packets (QUADRATIC_CHECKS output
    checks); returns the mismatches."""
    rng = ref.Lcg(wl.mix(seed, 7 + n))
    ticks = wl.stratified_jitter(rng, n)
    lengths = wl.bit_lengths(rng, n)
    trace = lib.Trace(arrivals=tuple(ticks), lengths=tuple(lengths))
    lam = Fraction(1, wl.PERIOD)
    fit = ref.fit_lambda_nu_rate(ticks, lam)
    # one tenth of a packet of slack: conforms, no tight pairs, so the
    # row times the pair scan rather than the report
    nu = ref.rational_from(fit["model"]["nu"]) + Fraction(1, 10)
    sigma = ref.least_sigma(ticks, lengths, wl.SIGMA_RHO_RATE)
    gen_seed = rng.u32()
    problems = []
    with t.span(f"probe.n{n}", cmd=f"probe.n{n}"):
        with t.span("conformance.check_lambda_nu"):
            report = lib.check_lambda_nu(trace, lib.LambdaNuModel(lam=lam, nu=nu))
        if not report.conforms or report.tight_pairs:
            problems.append("check_lambda_nu: want conforming, no tight pairs")
        with t.span("conformance.fit_lambda_nu.rate"):
            got = lib.fit_result_to_json(lib.fit_lambda_nu(trace, lam=lam))
        if got != fit:
            problems.append("fit_lambda_nu rate")
        with t.span("conformance.fit_lambda_nu.burst"):
            got = lib.fit_result_to_json(lib.fit_lambda_nu(trace, nu=0))
        if got != ref.fit_lambda_nu_zero_burst(ticks):
            problems.append("fit_lambda_nu burst")
        with t.span("conformance.check_sigma_rho"):
            report = lib.check_sigma_rho(trace, lib.SigmaRhoModel(sigma=sigma, rho=wl.SIGMA_RHO_RATE))
        if not report.conforms:
            problems.append("check_sigma_rho: want conforming")
        with t.span("generators.gen_jittered"):
            generated, _ = lib.gen_jittered(wl.PERIOD, wl.JITTER, gen_seed, n)
        if list(generated.arrivals) != ref.jittered_ticks(wl.PERIOD, wl.JITTER, gen_seed, n):
            problems.append("gen_jittered")
        with t.span("generators.gen_extremal_lambda_nu"):
            generated = lib.gen_extremal_lambda_nu(lib.LambdaNuModel(lam=lam, nu=2), n)
        if list(generated.arrivals) != ref.extremal_ticks(wl.PERIOD, 2, n):
            problems.append("gen_extremal_lambda_nu")
    return problems


def _probe_linear(lib, t: Tracer, seed: int, n: int, work: Path) -> list[str]:
    flows = wl.merge_flows(seed, n // wl.FULL.flows, wl.FULL.flows)
    paths = []
    for f, (ticks, lengths) in enumerate(flows):
        paths.append(work / f"probe{n}_flow{f}.csv")
        wl.write_csv(paths[-1], ticks, lengths)
    with t.span(f"probe.n{n}", cmd=f"probe.n{n}"):
        with t.span("trace.read_trace_csv"):
            traces = [lib.read_trace_csv(str(p)) for p in paths]
        with t.span("aggregation.merge_traces_with_provenance"):
            merged, _ = lib.merge_traces_with_provenance(traces)
    return [] if list(merged.arrivals) == ref.merged(flows)[0] else ["merge probe"]


def _import_s(env: dict) -> float:
    """Fresh interpreter importing the CLI, minus one that imports nothing."""

    def timed(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - start

    timed("import maxplus_tc.cli")  # warm-up: .pyc files
    cli = statistics.median(timed("import maxplus_tc.cli") for _ in range(IMPORT_CALLS))
    bare = statistics.median(timed("pass") for _ in range(IMPORT_CALLS))
    return cli - bare


def _span_self(spans, root_name: str) -> dict[str, float]:
    roots = {s["id"] for s in spans if s["name"] == root_name and s["parent"] is None}
    return self_times([s for s in spans if s["parent"] in roots])


def run(workload: str, seed: int, seconds: float, sizes: wl.Sizes, work: Path, env: dict,
        root: Path, run_command) -> tuple[dict, int, int]:
    """Traced and untraced in-process passes in alternating order until
    ``seconds`` have passed (at least MIN_PAIRS of each), then the sweep
    and the size probes.  Returns metric values, attempted and failed."""
    lib = load_library(root)
    commands = wl.build(workload, seed, work, sizes)
    tracer, null = Tracer(), NullTracer()
    samples = []
    traced_walls, untraced_walls, pass_self = [], [], []
    start = time.perf_counter()
    while len(traced_walls) < MIN_PAIRS or time.perf_counter() - start < seconds:
        order = (True, False) if len(traced_walls) % 2 == 0 else (False, True)
        for traced in order:
            first_span = len(tracer.spans)
            done = [run_command(cmd, env, in_process(lib, tracer if traced else null))
                    for cmd in commands]
            samples += done
            wall = sum(s.wall for s in done)
            if traced:
                traced_walls.append(wall)
                pass_self.append(self_times(tracer.spans[first_span:]))
                if len(traced_walls) == 1:
                    pass_counts = dict(tracer.counts)
            else:
                untraced_walls.append(wall)
    pass_spans = tracer.spans

    sweep = Tracer()
    sweep_dir = work / "sweep"
    sweep_dir.mkdir()
    for other in wl.WORKLOADS:
        for cmd in wl.build(other, seed, sweep_dir, SWEEP):
            samples.append(run_command(cmd, env, in_process(lib, sweep)))
    sweep_self = self_times(sweep.spans)

    probes = Tracer()
    problems: list[str] = []
    for n in sizes.probe_sizes:
        problems += _probe_quadratic(lib, probes, seed, n)
    for n in sizes.linear_probe_sizes:
        problems += _probe_linear(lib, probes, seed, n, work)
    for problem in problems:
        print(f"FAIL probe: {problem}", file=sys.stderr)

    values: dict[str, float] = {}
    for layer in LAYERS:
        got = [p[layer] for p in pass_self if layer in p]
        values[f"{layer}.s"] = statistics.median(got) if got else sweep_self.get(layer, 0.0)
    small, mid, large = sizes.probe_sizes
    for layer in QUADRATIC:
        at = {n: _span_self(probes.spans, f"probe.n{n}")[layer] for n in sizes.probe_sizes}
        values[f"{layer}.n1000.s"] = at[small]
        values[f"{layer}.n10000.s"] = at[large]
        values[f"{layer}.exp"] = math.log(at[large] / at[mid], large // mid)
    low, high = sizes.linear_probe_sizes
    for layer in LINEAR:
        ratio = _span_self(probes.spans, f"probe.n{high}")[layer] / _span_self(probes.spans, f"probe.n{low}")[layer]
        values[f"{layer}.exp"] = math.log(ratio, high // low)
    for name in COUNTS:
        values[name] = pass_counts.get(name, 0)
    checked = values["conformance.checked_pairs"]
    values["conformance.tight_per_checked"] = values["conformance.tight_pairs"] / checked if checked else 0.0
    values["cli.import_s"] = _import_s(env)
    values["tracing.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_walls, untraced_walls)) - 1
    values["tracing.child_coverage"] = coverage(pass_spans)

    print(f"traced passes {len(traced_walls)}, untraced in-process passes {len(untraced_walls)}; "
          f"traced {statistics.median(traced_walls):.4f} s, untraced {statistics.median(untraced_walls):.4f} s")
    spans_file = root / ".perfbench_work" / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "counts": pass_counts,
        "spans": {"pass": pass_spans, "sweep": sweep.spans, "probes": probes.spans},
    }), encoding="utf-8")
    print(f"spans written to {spans_file.relative_to(root)}")
    attempted = len(samples) + QUADRATIC_CHECKS * len(sizes.probe_sizes) + len(sizes.linear_probe_sizes)
    return values, attempted, sum(1 for s in samples if s.problems) + len(problems)
