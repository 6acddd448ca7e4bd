"""Mutation testing of one module against tier-1.

    python -m tests.mutation maxplus_tc.models

Each mutant flips one operator of the module: a comparison (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``is``/``is not``, ``in``/``not in``) or one
``+``/``-``.  It is written into a temporary copy of ``src/``, ``tests/``,
``demos/`` and ``pyproject.toml``, never into the checkout, and tier-1 runs
on that copy with ``-x``.  A mutant is killed when tier-1 fails, survives when
it passes, and times out when it runs past twice the unmutated run plus 10 s;
its whole process tree is then ended.  A survivor listed in ``EQUIVALENT``
is reported as equivalent; any other survivor makes the run exit 1.  pytest
does not collect this file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")

# each operator as written, and what its mutant writes in its place
FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
}
OPERATOR = re.compile(rb"<=|>=|==|!=|<|>|is\s+not|is|not\s+in|in|[+-]")

# the mutants that behave as the original, so no test can kill them: each is
# keyed as ``keys`` keys its site, and says why
EQUIVALENT = {
    ("maxplus_tc.algebra", "curve_to_lambda_nu",
     "if num > 0 and (a == 0 or d * a < top * num):", "> -> >="):
        "a zero num is taken only while a == 0, which the first positive num replaces",
    ("maxplus_tc.algebra", "curve_to_lambda_nu",
     "if num > 0 and (a == 0 or d * a < top * num):", "< -> <="):
        "a tie keeps the ratio top/a, and lam and nu depend on that ratio alone",
    ("maxplus_tc.conformance", "_first_over", "if start < low:", "< -> <="):
        "on a tie it stores a value equal to low, so low keeps its value",
}


def sites(source: bytes) -> list[tuple[int, int, bytes]]:
    """Each mutation site of ``source`` in source order, as the byte span of
    its operator and the bytes that replace it."""
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = zip([node.left, *node.comparators], node.comparators, node.ops)
        elif isinstance(node, ast.BinOp):
            operands = [(node.left, node.right, node.op)]
        elif isinstance(node, ast.AugAssign):
            operands = [(node.target, node.value, node.op)]
        else:
            continue
        for before, after, op in operands:
            if type(op) not in FLIPS:
                continue
            # the operator is the one token between its two operands
            low = line_starts[before.end_lineno - 1] + before.end_col_offset
            match = OPERATOR.search(source, low, line_starts[after.lineno - 1] + after.col_offset)
            written, flipped = FLIPS[type(op)]
            if match is None or b" ".join(match.group().split()) != written.encode():
                raise ValueError(f"line {node.lineno}: cannot find the operator {written!r}")
            found.append((match.start(), match.end(), flipped.encode()))
    return sorted(found)


def keys(module: str, source: bytes) -> list[tuple[str, str, str, str]]:
    """The key of each site of ``sites(source)``, in the same order: the
    module, the innermost function holding the site, the code of its line and
    its flip.  The function tells apart equal lines in two functions."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines = source.decode().splitlines()
    found = []
    for low, high, flipped in sites(source):
        line = source.count(b"\n", 0, low) + 1
        holders = [f for f in functions if f.lineno <= line <= f.end_lineno]
        function = max(holders, key=lambda f: f.lineno).name if holders else "<module>"
        flip = f"{source[low:high].decode()} -> {flipped.decode()}"
        found.append((module, function, lines[line - 1].strip(), flip))
    return found


def run_tier1(copy: Path, timeout: float | None) -> str:
    """``killed``, ``survived`` or ``timed out``: tier-1 on ``copy``, stopped
    at its first failure."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # test_mutation.py checks EQUIVALENT against the source, so it would fail
    # every listed mutant for its changed line, not for its behaviour
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutation.py"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if child.returncode is None:  # timed out or interrupted: end the child's whole tree
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code is None:
        return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.mutation", description=__doc__.split("\n")[0])
    parser.add_argument("module", help="a module of the package, such as maxplus_tc.models")
    module = parser.parse_args(argv).module
    relative = Path("src", *module.split(".")).with_suffix(".py")
    source = (ROOT / relative).read_bytes()
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        start = time.perf_counter()
        if run_tier1(copy, None) != "survived":
            print("tier-1 fails on the unmutated copy", file=sys.stderr)
            return 1
        timeout = 2 * (time.perf_counter() - start) + 10
        outcomes = Counter()
        for (low, high, flipped), key in zip(sites(source), keys(module, source)):
            (copy / relative).write_bytes(source[:low] + flipped + source[high:])
            outcome = run_tier1(copy, timeout)
            outcomes[outcome] += 1
            if outcome == "survived" and key in EQUIVALENT:
                outcomes["equivalent"] += 1
                outcome = f"survived, equivalent: {EQUIVALENT[key]}"
            line = source.count(b"\n", 0, low) + 1
            print(f"{relative}:{line} {source[low:high].decode()!r} -> {flipped.decode()!r}: {outcome}",
                  flush=True)
    print(f"killed {outcomes['killed']}, survived {outcomes['survived']} "
          f"({outcomes['equivalent']} equivalent), timed out {outcomes['timed out']}")
    return 1 if outcomes["survived"] > outcomes["equivalent"] else 0


if __name__ == "__main__":
    sys.exit(main())
