"""Self-tests of the benchmark: its reference formulas, its output checks,
its metric names and the reproducibility of its inputs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import maxplus_tc as lib  # noqa: E402


def _random_trace(rng: ref.Lcg, n: int, spread: int):
    ticks, t = [], rng.randint(0, 5)
    for _ in range(n):
        t += rng.randint(0, spread)
        ticks.append(t)
    return ticks, [rng.randint(1, 40) for _ in range(n)]


def _fraction(rng: ref.Lcg, top: int) -> Fraction:
    return Fraction(rng.randint(0, top), rng.randint(1, 4))


@pytest.mark.parametrize("seed", range(60))
def test_reference_matches_library_routes(seed):
    rng = ref.Lcg(seed)
    ticks, lengths = _random_trace(rng, rng.randint(0, 40), rng.randint(0, 12))
    trace = lib.Trace(arrivals=tuple(ticks), lengths=tuple(lengths))
    lam = Fraction(rng.randint(1, 5), rng.randint(1, 20))
    nu = _fraction(rng, 6)
    model = lib.LambdaNuModel(lam=lam, nu=nu)
    want = ref.check_lambda_nu(ticks, lam, nu)
    assert wl.compare_report(lib.report_to_json(lib.check_lambda_nu_via_convolution(trace, model)), want) == []
    assert wl.compare_report(lib.report_to_json(lib.check_lambda_nu(trace, model)), want) == []
    assert lib.fit_result_to_json(lib.fit_lambda_nu(trace, lam=lam)) == ref.fit_lambda_nu_rate(ticks, lam)

    tau, k_max, closed = _fraction(rng, 30) + 1, rng.randint(1, 6), rng.randint(0, 1) == 1
    tspec = lib.TSpecModel(tau=tau, k_max=k_max,
                           window_mode=lib.WindowMode.CLOSED if closed else lib.WindowMode.OPEN)
    want = ref.check_tspec(ticks, tau, k_max, closed)
    assert wl.compare_report(lib.report_to_json(lib.check_tspec_pairwise(trace, tspec)), want) == []
    assert lib.fit_result_to_json(lib.fit_tspec(trace, tau, tspec.window_mode)) == ref.fit_tspec(ticks, tau, closed)

    sigma, rho = _fraction(rng, 60), Fraction(rng.randint(1, 30), rng.randint(1, 3))
    want = ref.check_sigma_rho(ticks, lengths, sigma, rho)
    got = lib.check_sigma_rho(trace, lib.SigmaRhoModel(sigma=sigma, rho=rho))
    assert wl.compare_report(lib.report_to_json(got), want) == []
    assert lib.check_sigma_rho(
        trace, lib.SigmaRhoModel(sigma=ref.least_sigma(ticks, lengths, 7), rho=7)).conforms


@pytest.mark.parametrize("seed", range(20))
def test_reference_generators_fits_and_merge(seed):
    rng = ref.Lcg(1000 + seed)
    period, burst, count = rng.randint(1, 12), rng.randint(0, 4), rng.randint(0, 60)
    model = lib.LambdaNuModel(lam=Fraction(1, period), nu=burst)
    assert list(lib.gen_extremal_lambda_nu(model, count).arrivals) == ref.extremal_ticks(period, burst, count)
    jitter, gen_seed = rng.randint(0, period - 1), rng.u32()
    trace, fitted = lib.gen_jittered(period, jitter, gen_seed, count)
    assert list(trace.arrivals) == ref.jittered_ticks(period, jitter, gen_seed, count)

    ticks = sorted(set(_random_trace(rng, 30, 6)[0]))
    if len(ticks) >= 2:
        got = lib.fit_lambda_nu(lib.Trace(arrivals=tuple(ticks)), nu=0)
        assert lib.fit_result_to_json(got) == ref.fit_lambda_nu_zero_burst(ticks)

    flows = [_random_trace(rng, rng.randint(0, 15), 3) for _ in range(rng.randint(1, 4))]
    merged, origins = lib.merge_traces_with_provenance(
        [lib.Trace(arrivals=tuple(t), lengths=tuple(b)) for t, b in flows])
    want_ticks, want_lengths, want_origins = ref.merged(flows)
    assert list(merged.arrivals) == want_ticks
    assert list(merged.lengths or ()) == want_lengths
    assert [{"flow": o.flow, "index": o.index} for o in origins] == want_origins


def test_tight_periodic_closed_forms_match_general_formula(tmp_path):
    commands = wl.build("tight_periodic", 5, tmp_path, wl.SMALL)
    ticks = [int(x) for x in (tmp_path / "periodic.csv").read_text().split()[1:]]
    general = ref.check_lambda_nu(ticks, Fraction(1, wl.PERIOD), Fraction(0))
    assert general.tight_count == len(ticks) * (len(ticks) - 1) // 2
    assert list(general.tight()) == [(m, n) for m in range(1, len(ticks) + 1)
                                     for n in range(m + 1, len(ticks) + 1)]
    assert ref.fit_lambda_nu_rate(ticks, Fraction(1, wl.PERIOD))["binding_pair"] == [1, 2]
    assert len(commands) == 3


def test_bounded_report_passes_only_when_consistent():
    want = ref.Report(True, None, 3, lambda: iter([(1, 2), (1, 3), (2, 3)]), 3)
    full = {"conforms": True, "witness": None, "tight_pairs": [[1, 2], [1, 3], [2, 3]], "checked_pairs": 3}
    assert wl.compare_report(full, want) == []
    bounded = dict(full, tight_pairs=[[1, 2]], tight_count=3, truncated=True)
    assert wl.compare_report(bounded, want) == []
    assert wl.compare_report(dict(bounded, truncated=False), want) != []
    assert wl.compare_report(dict(bounded, tight_count=2), want) != []
    assert wl.compare_report(dict(bounded, tight_pairs=[[1, 3]]), want) != []
    assert wl.compare_report(dict(full, checked_pairs=4), want) != []


def test_corrupted_output_counts_in_error_rate(tmp_path):
    commands = wl.build("tight_periodic", 3, tmp_path, wl.SMALL)
    env = run.child_env()
    assert all(not s.problems for s in run.run_pass(commands, env))

    def corrupting(cmd, env):
        code, wall, rss = run.run_child(cmd, env)
        if cmd.cid == "check.rate":
            report = json.loads(cmd.stdout.read_text())
            report["tight_pairs"][5] = [5, 1]
            cmd.stdout.write_text(json.dumps(report))
        if cmd.cid == "fit.rate":
            code = 3
        return code, wall, rss

    samples = run.run_pass(commands, env, corrupting)
    assert [s.cid for s in samples if s.problems] == ["check.rate", "fit.rate"]
    (tmp_path / "check_tspec.out").write_text("not json")
    assert run.verify(commands[1], 0)


def _inputs(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_fixed_seed_regenerates_identical_inputs(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    argv = [[c.argv() for c in wl.build(workload, seed, d, wl.SMALL)]
            for seed, d in zip((7, 7, 8), dirs)]
    first, again, other = (_inputs(d) for d in dirs)
    assert first == again
    assert json.dumps(argv[0]).replace(str(dirs[0]), "") == json.dumps(argv[1]).replace(str(dirs[1]), "")
    assert first != other or argv[0] != argv[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in wl.WORKLOADS] + [("merge_aggregate", 1)])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, capsys, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        import traced

        declared = spec["per_layer"]
        measured = traced.run(workload, 2, 1, wl.SMALL, tmp_path, run.child_env(), ROOT, run.run_command)
    else:
        declared = spec["end_to_end"]
        measured = run.untraced(workload, 2, 1, wl.SMALL, tmp_path)
    run.emit(declared, *measured)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite_small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert got.returncode != 0
    assert '"metrics"' not in got.stdout
