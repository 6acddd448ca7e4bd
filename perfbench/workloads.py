"""Workloads: seeded inputs, the CLI commands that run on them, and the
check of every command's output.

``build(name, seed, work, sizes)`` writes a workload's input files into
``work`` and returns its commands.  The same seed always writes the same
bytes.  Each :class:`Command` knows its CLI arguments, where its stdout
goes, the exit code it must return and how to check what it wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("jittered_envelopes", "tight_periodic", "merge_aggregate", "suite_small")

PROPERTY_NAMES = (
    "pairwise_equals_maxplus_route",
    "merge_conforms_to_direct_sum",
    "aligned_merge_attains_burst_bound",
    "rate_burst_maps_into_tspec",
    "tspec_maps_into_rate_burst",
    "merge_conforms_to_tspec_sum",
    "merge_conforms_to_bit_sum",
    "composition_formula_matches_merge",
    "length_detour_never_beats_direct",
    "curve_reduction_stays_below_curve",
    "fitted_envelopes_are_tight",
    "window_scan_equals_pairwise_windows",
    "looser_models_stay_conforming",
    "mapping_roundtrip_scales_rate",
    "merge_is_order_insensitive",
    "generators_pass_their_checkers",
)

PERIOD = 10
JITTER = 4
MIN_BITS, MAX_BITS = 64, 1500
SIGMA_RHO_RATE = 100  # bits/tick, above the mean of MAX_BITS+MIN_BITS over 2*PERIOD
TSPEC_TAU = 50
MERGE_TAU = 100


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``SMALL`` keeps the
    self-tests fast and is not comparable with it."""

    jittered: int = 3000
    generated: int = 2000
    periodic: int = 1000
    flows: int = 5
    flow_packets: int = 40_000
    suite_trials: int = 100
    suite_max_packets: int = 100
    probe_sizes: tuple[int, int, int] = (1000, 2500, 10_000)
    linear_probe_sizes: tuple[int, int] = (25_000, 100_000)


FULL = Sizes()
SMALL = Sizes(
    jittered=300, generated=200, periodic=120, flow_packets=2000, suite_trials=2,
    probe_sizes=(100, 200, 800), linear_probe_sizes=(2000, 8000),
)


@dataclass
class Command:
    cid: str
    sub: str  # CLI subcommand
    opts: dict  # option -> value (str) or list of str
    stdout: Path
    exit_code: int
    verify: Callable[[Command], list[str]]  # mismatches, empty when correct
    packets: int = 0  # input packets handed to the program

    def argv(self) -> list[str]:
        out = [self.sub]
        for key, value in self.opts.items():
            out.append(key)
            out.extend(value if isinstance(value, list) else [value])
        return out


def mix(seed: int, tag: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + tag) & ref.MASK64


# ---------------------------------------------------------------------------
# input files


def write_csv(path: Path, ticks: list[int], lengths: list[int] | None = None) -> None:
    if lengths is None:
        text = "arrival_ticks\n" + "".join(f"{t}\n" for t in ticks)
    else:
        text = "arrival_ticks,length_bits\n" + "".join(
            f"{t},{b}\n" for t, b in zip(ticks, lengths)
        )
    path.write_text(text, encoding="utf-8")


def write_model(path: Path, model: dict) -> None:
    path.write_text(json.dumps(model) + "\n", encoding="utf-8")


def stratified_jitter(rng: ref.Lcg, count: int) -> list[int]:
    """Jittered ticks (PERIOD, JITTER): every block of JITTER+1 packets takes
    each offset 0..JITTER once, in a seeded order.  Offsets stay below the
    period, so ticks strictly increase, and each offset's share is fixed, so
    the fitted envelope's tight-pair count hardly varies with the seed."""
    offsets: list[int] = []
    while len(offsets) < count:
        block = list(range(JITTER + 1))
        for i in range(JITTER, 0, -1):
            j = rng.randint(0, i)
            block[i], block[j] = block[j], block[i]
        offsets.extend(block)
    return [PERIOD * k + off for k, off in enumerate(offsets[:count])]


def bit_lengths(rng: ref.Lcg, count: int) -> list[int]:
    return [rng.randint(MIN_BITS, MAX_BITS) for _ in range(count)]


# ---------------------------------------------------------------------------
# output checks


def _load_json(cmd: Command):
    return json.loads(cmd.stdout.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> tuple[list[int], list[int] | None]:
    lines = path.read_text(encoding="utf-8").split()
    if lines and lines[0].startswith("arrival_ticks"):
        lines = lines[1:]
    if lines and "," in lines[0]:
        rows = [line.split(",") for line in lines]
        return [int(r[0]) for r in rows], [int(r[1]) for r in rows]
    return [int(x) for x in lines], None


def compare_report(got, want: ref.Report) -> list[str]:
    """Every field exactly; tight pairs by count and prefix.

    A report may list only the first tight pairs when it says so with
    ``truncated`` and gives the full count as ``tight_count``."""
    if not isinstance(got, dict):
        return [f"report is {type(got).__name__}, not an object"]
    problems = []
    for key, value in (
        ("conforms", want.conforms),
        ("witness", want.witness),
        ("checked_pairs", want.checked_pairs),
    ):
        if got.get(key) != value:
            problems.append(f"{key}: got {got.get(key)!r}, want {value!r}")
    listed = got.get("tight_pairs")
    if not isinstance(listed, list):
        return problems + ["tight_pairs missing"]
    count = got.get("tight_count", len(listed))
    if count != want.tight_count:
        problems.append(f"tight pair count: got {count}, want {want.tight_count}")
    if len(listed) != want.tight_count and got.get("truncated") is not True:
        problems.append(f"{len(listed)} tight pairs listed without truncation")
    for i, (pair, expected) in enumerate(zip(listed, want.tight())):
        if pair != list(expected):
            problems.append(f"tight pair {i}: got {pair}, want {list(expected)}")
            break
    return problems


def expect_report(want: ref.Report):
    return lambda cmd: compare_report(_load_json(cmd), want)


def expect_json(want):
    def verify(cmd: Command) -> list[str]:
        got = _load_json(cmd)
        return [] if got == want else [f"got {str(got)[:200]}, want {str(want)[:200]}"]

    return verify


def expect_trace(ticks: list[int], lengths: list[int] | None = None, model_out: Path | None = None,
                 model: dict | None = None, provenance: Path | None = None, origins=None):
    def verify(cmd: Command) -> list[str]:
        got_ticks, got_lengths = _read_csv(cmd.stdout)
        problems = []
        if got_ticks != ticks:
            first = next((i for i, (a, b) in enumerate(zip(got_ticks, ticks)) if a != b),
                         min(len(got_ticks), len(ticks)))
            problems.append(f"ticks differ from packet {first + 1} ({len(got_ticks)} vs {len(ticks)})")
        if got_lengths != lengths:
            problems.append("lengths differ")
        if model_out is not None and json.loads(model_out.read_text(encoding="utf-8")) != model:
            problems.append("fitted model differs")
        if provenance is not None:
            got = json.loads(provenance.read_text(encoding="utf-8"))
            if got != {"packets": origins}:
                problems.append("provenance differs")
        return problems

    return verify


def expect_suite(seed: int, trials: int, max_packets: int):
    def verify(cmd: Command) -> list[str]:
        got = _load_json(cmd)
        problems = []
        if got.get("failures_total") != 0:
            problems.append(f"failures_total: {got.get('failures_total')!r}")
        if got.get("config") != {"seed": seed, "trials": trials, "max_flows": 5, "max_packets": max_packets}:
            problems.append(f"config: {got.get('config')!r}")
        props = got.get("properties") or []
        if [p.get("name") for p in props] != list(PROPERTY_NAMES):
            problems.append("property names differ")
        if any(p.get("trials") != trials or p.get("failures") != [] for p in props):
            problems.append("a property ran other trials or failed")
        return problems

    return verify


# ---------------------------------------------------------------------------
# workloads


def setup_command(work: Path) -> Command:
    """No-work call: map a one-line rate 1/10 envelope with no burst.  A
    closed 10-tick window then holds at most 2 packets."""
    model = work / "setup_model.json"
    write_model(model, ref.lambda_nu_json(Fraction(1, 10), Fraction(0)))
    want = {"type": "tspec", "tau": ref.rational(10), "k_max": 2, "window_mode": "closed"}
    return Command("map.setup", "map", {"--model": str(model)}, work / "setup.out", 0,
                   expect_json(want))


def jittered_envelopes(seed: int, work: Path, sizes: Sizes) -> list[Command]:
    rng = ref.Lcg(mix(seed, 1))
    n = sizes.jittered
    ticks = stratified_jitter(rng, n)
    lengths = bit_lengths(rng, n)
    trace = work / "jittered.csv"
    write_csv(trace, ticks, lengths)

    lam = Fraction(1, PERIOD)
    fit = ref.fit_lambda_nu_rate(ticks, lam)
    nu = ref.rational_from(fit["model"]["nu"])
    under = nu * Fraction(4, 5)
    tspec_fit = ref.fit_tspec(ticks, Fraction(TSPEC_TAU))
    k_max = tspec_fit["model"]["k_max"]
    sigma = ref.least_sigma(ticks, lengths, SIGMA_RHO_RATE)
    models = {
        "fit": ref.lambda_nu_json(lam, nu),
        "under": ref.lambda_nu_json(lam, under),
        "tspec": tspec_fit["model"],
        "sigma_rho": {"type": "sigma_rho", "sigma": ref.rational(sigma),
                      "rho": ref.rational(SIGMA_RHO_RATE)},
    }
    for key, model in models.items():
        write_model(work / f"{key}.json", model)

    gen_seed = rng.u32()
    burst = rng.randint(1, 4)
    gen_model = work / "generated_model.json"
    gen_ticks = ref.jittered_ticks(PERIOD, JITTER, gen_seed, sizes.generated)

    def check(key, report, code):
        return Command(f"check.{key}", "check", {"--trace": str(trace), "--model": str(work / f"{key}.json")},
                       work / f"check_{key}.out", code, expect_report(report), packets=n)

    def fit_cmd(key, opt, value, want):
        return Command(f"fit.{key}", "fit", {"--trace": str(trace), opt: value},
                       work / f"fit_{key}.out", 0, expect_json(want), packets=n)

    under_report = ref.check_lambda_nu(ticks, lam, under)
    return [
        check("fit", ref.check_lambda_nu(ticks, lam, nu), 0),
        check("under", under_report, 0 if under_report.conforms else 1),
        fit_cmd("rate", "--rate", f"1/{PERIOD}", fit),
        fit_cmd("burst", "--burst", "0", ref.fit_lambda_nu_zero_burst(ticks)),
        fit_cmd("interval", "--interval", str(TSPEC_TAU), tspec_fit),
        check("tspec", ref.check_tspec(ticks, Fraction(TSPEC_TAU), k_max), 0),
        check("sigma_rho", ref.check_sigma_rho(ticks, lengths, Fraction(sigma), Fraction(SIGMA_RHO_RATE)), 0),
        Command("generate.jittered", "generate",
                {"--kind": "jittered", "--period": str(PERIOD), "--jitter": str(JITTER),
                 "--seed": str(gen_seed), "--count": str(sizes.generated), "--out": "-",
                 "--model-out": str(gen_model)},
                work / "generate_jittered.out", 0,
                expect_trace(gen_ticks, model_out=gen_model,
                             model=ref.fit_lambda_nu_rate(gen_ticks, lam)["model"])),
        Command("generate.extremal", "generate",
                {"--kind": "extremal", "--rate": f"1/{PERIOD}", "--burst": str(burst),
                 "--count": str(sizes.generated), "--out": "-"},
                work / "generate_extremal.out", 0,
                expect_trace(ref.extremal_ticks(PERIOD, burst, sizes.generated))),
    ]


def tight_periodic(seed: int, work: Path, sizes: Sizes) -> list[Command]:
    """Periodic at its own rate: every pair meets the rate/burst bound with
    equality.  Closed forms: N(N-1)/2 tight pairs, all of them, no
    witness; a window of TSPEC_TAU ticks holds TSPEC_TAU/PERIOD + 1 packets,
    tight on (m, m + TSPEC_TAU/PERIOD); the rate fit is nu = 0, binding (1, 2)."""
    n = sizes.periodic
    phase = ref.Lcg(mix(seed, 2)).randint(0, PERIOD - 1)
    ticks = [phase + PERIOD * k for k in range(n)]
    trace = work / "periodic.csv"
    write_csv(trace, ticks)
    lam = Fraction(1, PERIOD)
    write_model(work / "rate.json", ref.lambda_nu_json(lam, Fraction(0)))
    span = TSPEC_TAU // PERIOD
    tspec = {"type": "tspec", "tau": ref.rational(TSPEC_TAU), "k_max": span + 1,
             "window_mode": "closed"}
    write_model(work / "tspec.json", tspec)

    all_pairs = ref.Report(True, None, n * (n - 1) // 2,
                           lambda: ((m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)),
                           n * (n - 1) // 2)
    windows = ref.Report(True, None, n - span, lambda: ((m, m + span) for m in range(1, n - span + 1)),
                         n * (n + 1) // 2)
    return [
        Command("check.rate", "check", {"--trace": str(trace), "--model": str(work / "rate.json")},
                work / "check_rate.out", 0, expect_report(all_pairs), packets=n),
        Command("check.tspec", "check", {"--trace": str(trace), "--model": str(work / "tspec.json")},
                work / "check_tspec.out", 0, expect_report(windows), packets=n),
        Command("fit.rate", "fit", {"--trace": str(trace), "--rate": f"1/{PERIOD}"},
                work / "fit_rate.out", 0,
                expect_json(ref.fit_json(ref.lambda_nu_json(lam, Fraction(0)), [1, 2])), packets=n),
    ]


def merge_flows(seed: int, count: int, flows: int) -> list[tuple[list[int], list[int]]]:
    """Flows of period PERIOD with a seeded phase, per-packet jitter in
    [0, JITTER] and seeded lengths; flows collide on ticks, so ties occur."""
    out = []
    for f in range(flows):
        rng = ref.Lcg(mix(seed, 100 + f))
        phase = rng.randint(0, PERIOD - 1)
        ticks = [phase + PERIOD * k + rng.randint(0, JITTER) for k in range(count)]
        out.append((ticks, bit_lengths(rng, count)))
    return out


def merge_aggregate(seed: int, work: Path, sizes: Sizes) -> list[Command]:
    flows = merge_flows(seed, sizes.flow_packets, sizes.flows)
    paths = []
    for f, (ticks, lengths) in enumerate(flows):
        paths.append(work / f"flow{f}.csv")
        write_csv(paths[-1], ticks, lengths)
    ticks, lengths, origins = ref.merged(flows)
    agg = work / "aggregate.csv"
    prov = work / "provenance.json"
    tspec_fit = ref.fit_tspec(ticks, Fraction(MERGE_TAU))
    write_model(work / "tspec.json", tspec_fit["model"])
    total = len(ticks)
    return [
        Command("merge", "merge", {"--traces": [str(p) for p in paths], "--out": "-",
                                   "--provenance": str(prov)},
                agg, 0, expect_trace(ticks, lengths, provenance=prov, origins=origins),
                packets=total),
        Command("check.tspec", "check", {"--trace": str(agg), "--model": str(work / "tspec.json")},
                work / "check_tspec.out", 0,
                expect_report(ref.check_tspec(ticks, Fraction(MERGE_TAU), tspec_fit["model"]["k_max"])),
                packets=total),
        Command("fit.interval", "fit", {"--trace": str(agg), "--interval": str(MERGE_TAU)},
                work / "fit_interval.out", 0, expect_json(tspec_fit), packets=total),
    ]


def suite_small(seed: int, work: Path, sizes: Sizes) -> list[Command]:
    suite_seed = seed & 0xFFFFFFFF
    trials, max_packets = sizes.suite_trials, sizes.suite_max_packets
    return [
        Command("suite", "suite", {"--seed": str(suite_seed), "--trials": str(trials),
                                   "--max-packets": str(max_packets)},
                work / "suite.out", 0, expect_suite(suite_seed, trials, max_packets)),
    ]


BY_NAME = {
    "jittered_envelopes": jittered_envelopes,
    "tight_periodic": tight_periodic,
    "merge_aggregate": merge_aggregate,
    "suite_small": suite_small,
}


def build(name: str, seed: int, work: Path, sizes: Sizes = FULL) -> list[Command]:
    return BY_NAME[name](seed, work, sizes)


def input_sizes(name: str, sizes: Sizes) -> dict:
    return {
        "jittered_envelopes": {"packets": sizes.jittered, "generated_packets": sizes.generated},
        "tight_periodic": {"packets": sizes.periodic},
        "merge_aggregate": {"flows": sizes.flows, "packets_per_flow": sizes.flow_packets},
        "suite_small": {"trials": sizes.suite_trials, "max_flows": 5, "max_packets": sizes.suite_max_packets},
    }[name]
