"""End-to-end benchmark of the maxplus-tc command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload jittered_envelopes --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it runs the workload's CLI commands as real
subprocesses, one at a time (a closed loop with one client), for about
``--seconds`` seconds, checks every command's output, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the same commands in this
process, calling each layer's public functions under spans, and prints the
per-layer metrics (see traced.py).  Metric names and units come from
BENCHMARK.json; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
SETUP_CALLS = 11
MIN_CALIBRATIONS = 6  # per pass
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Median calibrate() time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7); timings are scaled to that speed.
CALIBRATION_REF_S = 0.03
LAUNCH = "import sys; from maxplus_tc.cli import main; sys.argv[0] = 'maxplus-tc'; main()"


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one thread per
    numeric library, and no seed override from the caller."""
    env = {k: v for k, v in os.environ.items() if k != "MAXPLUS_TC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Sample:
    cid: str
    sub: str
    wall: float
    rss_mb: float
    out_bytes: int
    packets: int
    problems: list[str]
    speed: float = 1.0  # CALIBRATION_REF_S / the pass's median calibration

    @property
    def ref_wall(self) -> float:
        """Wall time scaled to the reference speed."""
        return self.wall * self.speed


def run_child(cmd: wl.Command, env: dict) -> tuple[int, float, float]:
    """Run one CLI call with stdout to its file; returns exit code, wall
    seconds and the child's peak RSS in MB (from wait4)."""
    argv = [sys.executable, "-c", LAUNCH] + cmd.argv()
    with open(cmd.stdout, "wb") as out, open(cmd.stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work (arithmetic,
    allocation, JSON serialisation, parsing, sorting) that does not touch
    the program, with the garbage collector off.

    The host's speed drifts by tens of percent within minutes, and this
    loop slows down with it.  A calibrated pass runs it before every
    command and after the last one, at least MIN_CALIBRATIONS times in
    all, and scales the pass's wall times by CALIBRATION_REF_S over the
    median of those runs."""
    gc.disable()
    try:
        start = time.perf_counter()
        x = 0
        for i in range(150_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        rows = [[i, i * 7 % 13] for i in range(4000)]
        text = json.dumps(rows, indent=2)
        numbers = [int(tok.strip(",")) for tok in text.split() if tok[0].isdigit()]
        numbers.sort(key=lambda v: -v)
        return time.perf_counter() - start
    finally:
        gc.enable()


def verify(cmd: wl.Command, code: int) -> list[str]:
    """Mismatches in a command's exit code and output (empty when right)."""
    if code != cmd.exit_code:
        err = cmd.stdout.with_suffix(".err")
        detail = err.read_text(errors="replace")[:300] if err.exists() else ""
        return [f"exit code {code}, want {cmd.exit_code} {detail}".strip()]
    try:
        return cmd.verify(cmd)
    except Exception as exc:  # malformed output of any kind is a failed check
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_command(cmd: wl.Command, env: dict, execute=run_child) -> Sample:
    code, wall, rss = execute(cmd, env)
    size = cmd.stdout.stat().st_size if cmd.stdout.exists() else 0
    problems = verify(cmd, code)
    for problem in problems:
        print(f"FAIL {cmd.cid}: {problem}", file=sys.stderr)
    return Sample(cmd.cid, cmd.sub, wall, rss, size, cmd.packets, problems)


def run_pass(commands: list[wl.Command], env: dict, execute=run_child,
             calibrated: bool = False) -> list[Sample]:
    """The commands once, in order; a calibrated pass also sets each
    sample's speed factor (see calibrate)."""
    extra = max(0, MIN_CALIBRATIONS - len(commands) - 1)
    calibration = [calibrate() for _ in range(1 + extra // 2)] if calibrated else []
    samples = []
    for cmd in commands:
        samples.append(run_command(cmd, env, execute))
        if calibrated:
            calibration.append(calibrate())
    if calibrated:
        calibration += [calibrate() for _ in range(extra - extra // 2)]
        for sample in samples:
            sample.speed = CALIBRATION_REF_S / median(calibration)
    return samples


def measure(commands, env, seconds: float) -> list[list[Sample]]:
    """Closed loop: passes back to back until the next one would end after
    ``seconds`` (checks included), and at least MIN_PASSES of them."""
    start = time.perf_counter()
    passes: list[list[Sample]] = []
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(commands, env, calibrated=True))
        took = time.perf_counter() - begun
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + took > seconds:
            return passes


def end_to_end(setup: list[Sample], passes: list[list[Sample]]) -> tuple[dict, list[str]]:
    """Metric values and human-readable lines with their sample counts.

    Each command's time is its median over the passes; ``pass_s`` sums
    these medians, so one disturbed command does not move a whole pass.
    Times are at the reference speed (see calibrate)."""
    n = len(passes)
    count = len(passes[0])
    walls = [median(p[i].wall for p in passes) for i in range(count)]
    ref = [median(p[i].ref_wall for p in passes) for i in range(count)]
    by_sub: dict[str, float] = {}
    for sample, wall in zip(passes[0], ref):
        by_sub[sample.sub] = by_sub.get(sample.sub, 0.0) + wall
    values = {
        "setup_s": median(s.ref_wall for s in setup),
        "pass_s": sum(ref),
        "slowest_command_s": max(ref),
        "peak_rss_mb": median(max(s.rss_mb for s in p) for p in passes),
        "output_mb": median(sum(s.out_bytes for s in p) / 1e6 for p in passes),
    }
    speeds = [s.speed for p in passes for s in p]
    lines = [
        f"setup_s is the median of {len(setup)} calls; every other metric uses "
        f"{n} passes of {count} commands",
        f"as measured, before scaling to the reference speed: setup {median(s.wall for s in setup):.4f} s, "
        f"pass {sum(walls):.4f} s, slowest command {max(walls):.4f} s; "
        f"speed factors {min(speeds):.3f}..{max(speeds):.3f}",
    ]
    lines += [f"{sub}_s {wall:.4f} s" for sub, wall in by_sub.items()]
    packets = sum(s.packets for s in passes[0])
    if packets:
        lines.append(f"packets_per_s {packets / values['pass_s']:.1f} 1/s ({packets} packets per pass)")
    lines.append("pass walls " + " ".join(f"{sum(s.wall for s in p):.3f}" for p in passes))
    return values, lines


def metadata(workload: str, seed: int, sizes: wl.Sizes) -> list[str]:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = got.stdout.strip() or sha
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return [
        f"workload {workload} seed {seed} inputs {json.dumps(wl.input_sizes(workload, sizes))}",
        f"git {sha} python {platform.python_version()} numpy {numpy} "
        f"nproc {len(os.sched_getaffinity(0))} children 1 at a time",
    ]


def emit(declared: list[dict], values: dict, attempted: int, failed: int) -> None:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} commands failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def untraced(workload: str, seed: int, seconds: float, sizes: wl.Sizes, work: Path) -> tuple[dict, int, int]:
    env = child_env()
    commands = wl.build(workload, seed, work, sizes)
    probe = wl.setup_command(work)
    run_command(probe, env)  # warm-up: writes the .pyc files
    setup = run_pass([probe] * SETUP_CALLS, env, calibrated=True)
    passes = measure(commands, env, seconds)
    values, lines = end_to_end(setup, passes)
    for line in lines:
        print(line)
    samples = setup + [s for p in passes for s in p]
    return values, len(samples), sum(1 for s in samples if s.problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxplus_tc" / "cli.py").is_file():
        print(f"no maxplus_tc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.update({var: "1" for var in THREAD_VARS})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for line in metadata(args.workload, args.seed, wl.FULL):
            print(line)
        if args.trace:
            import traced

            values, attempted, failed = traced.run(
                args.workload, args.seed, args.seconds, wl.FULL, work, child_env(), ROOT, run_command)
            declared = spec["per_layer"]
        else:
            values, attempted, failed = untraced(
                args.workload, args.seed, args.seconds, wl.FULL, work)
            declared = spec["end_to_end"]
        emit(declared, values, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
