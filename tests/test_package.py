"""The exported API, and the independence of the reference routes."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import maxplus_tc
from maxplus_tc import reference

EXPORTED = [
    "ConformanceReport", "CurveReduction", "CurveSpec", "DegenerateCurveError",
    "FitResult", "FormatError", "GridError", "InconsistentInputError",
    "IndirectInputs", "InfeasibleFitError", "LambdaNuModel", "Lcg64",
    "MappingVariant", "MaxPlusCurve", "MissingLengthsError", "PROPERTY_NAMES",
    "PacketOrigin", "PropertyReport", "SigmaRhoModel", "SuiteConfig",
    "SuiteSummary", "TSpecModel", "Table1Row", "Trace", "TrafficModelError",
    "UnboundedFitError", "WindowMode", "Witness", "aggregate_eq1", "ceil_div",
    "check_lambda_nu", "check_lambda_nu_via_convolution", "check_sigma_rho",
    "check_tspec", "check_tspec_pairwise", "cumulative", "curve_to_lambda_nu",
    "fit_lambda_nu", "fit_result_to_json", "fit_tspec", "gen_extremal_lambda_nu",
    "gen_jittered", "gen_periodic", "gen_tspec_extremal", "interarrival",
    "map_lambda_nu_to_tspec", "map_tspec_to_lambda_nu", "max_window_count",
    "merge_traces", "merge_traces_with_provenance", "model_from_json",
    "model_to_json", "parse_rational", "rational_from_json", "rational_to_json",
    "read_trace_csv", "render_table1_text", "report_to_json", "reproduce_table1",
    "run_property", "run_property_suite", "superpose_indirect",
    "superpose_lambda_nu", "superpose_sigma_rho", "superpose_tspec",
    "table1_to_json", "write_trace_csv",
]

# production helpers whose result a reference route would share with the
# fast path it checks
SHARED_HELPERS = {"min_spacing", "max_gap_in_window", "cumulative"}


def test_exported_names_are_pinned_and_resolve():
    assert sorted(maxplus_tc.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(maxplus_tc, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from maxplus_tc import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == EXPORTED


def test_dir_lists_every_export():
    assert set(EXPORTED) <= set(dir(maxplus_tc))


def test_each_export_is_the_object_its_module_defines():
    for name in EXPORTED:
        value = getattr(maxplus_tc, name)
        home = import_module(f"maxplus_tc.{maxplus_tc._MODULE_OF[name]}")
        assert getattr(home, name) is value
        # the table names the defining module, not one that re-imports the name
        assert getattr(value, "__module__", home.__name__) == home.__name__
    assert maxplus_tc.Trace is maxplus_tc.trace.Trace


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'maxplus_tc' has no attribute 'Tracer'$"):
        maxplus_tc.Tracer


def test_exports_load_their_module_on_first_use():
    code = (
        "import sys, maxplus_tc\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('maxplus_tc.'))\n"
        "print(loaded())\n"
        "maxplus_tc.Trace\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == [
        "[]",
        "['maxplus_tc._record', 'maxplus_tc.errors', 'maxplus_tc.rational', 'maxplus_tc.trace']",
    ]


def test_reference_routes_stay_independent():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("maxplus_tc")
        ):
            problems += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SHARED_HELPERS:
                problems.append(f"calls {name} on line {node.lineno}")
    assert problems == []


def test_suite_uses_reference_routes_only_to_compare():
    # the routes its differential properties check a fast path against; any
    # other reference route in the suite would be brute force doing
    # production work
    tree = ast.parse((ROOT / "src" / "maxplus_tc" / "suite.py").read_text(encoding="utf-8"))
    imported = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "reference"
        for alias in node.names
    )
    assert imported == ["aggregate_eq1", "check_lambda_nu_via_convolution", "check_tspec_pairwise"]
    # the package is reached only as "from .module import name"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("maxplus_tc")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert not (node.module or "").startswith("maxplus_tc")
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module is not None


ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "maxplus_tc").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert [line for path in paths for line in _unused_imports(path)] == []


def test_no_module_imports_dataclasses():
    # a frozen dataclass compiles its methods with exec at every import, and
    # the module pulls in inspect, ast and dis: records derive from _record
    imported = []
    for path in sorted((ROOT / "src" / "maxplus_tc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert [(name, module) for name, module in imported
            if module.partition(".")[0] == "dataclasses"] == []
    assert len(imported) > 20  # the walk saw the package's imports
