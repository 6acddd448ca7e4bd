"""The exported API, and the independence of the reference routes."""

import ast
import hashlib
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import maxplus_tc
from maxplus_tc import reference

EXPORTED = [
    "ConformanceReport", "DegenerateCurveError",
    "FitResult", "FormatError", "InconsistentInputError",
    "InfeasibleFitError", "LambdaNuModel", "Lcg64",
    "MappingVariant", "MaxPlusCurve", "MissingLengthsError", "PROPERTY_NAMES",
    "PacketOrigin", "PropertyReport", "SigmaRhoModel", "SuiteConfig",
    "SuiteSummary", "TSpecModel", "Table1Row", "Trace", "TrafficModelError",
    "UnboundedFitError", "WindowMode", "Witness", "aggregate_eq1",
    "check_lambda_nu", "check_lambda_nu_via_convolution", "check_sigma_rho",
    "check_tspec", "check_tspec_pairwise", "curve_to_lambda_nu",
    "fit_lambda_nu", "fit_result_to_json", "fit_tspec", "gen_extremal_lambda_nu",
    "gen_jittered", "gen_periodic", "gen_tspec_extremal",
    "map_lambda_nu_to_tspec", "map_tspec_to_lambda_nu",
    "merge_traces", "merge_traces_with_provenance", "model_from_json",
    "model_to_json", "rational_from_json", "rational_to_json",
    "read_trace_csv", "render_table1_text", "report_to_json", "reproduce_table1",
    "run_property", "run_property_suite", "superpose_indirect",
    "superpose_lambda_nu", "superpose_sigma_rho", "superpose_tspec",
    "table1_to_json", "write_trace_csv",
]

# production helpers whose result a reference route would share with the
# fast path it checks
SHARED_HELPERS = {"min_spacing", "max_gap_in_window"}


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
        "['maxplus_tc._record', 'maxplus_tc.errors', 'maxplus_tc.trace']",
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


def test_suite_records_show_values_through_one_encoder():
    # a property passes raw values to _failure, and only its encoder decides
    # how a record shows a trace, a report or a model
    tree = ast.parse((ROOT / "src" / "maxplus_tc" / "suite.py").read_text(encoding="utf-8"))
    encoders = {"_shown", "_failure"}
    problems = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) or function.name in encoders:
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            name = node.func.id
            if name in {"model_to_json", "report_to_json", "_trace_summary"}:
                problems.append(f"{function.name} calls {name} on line {node.lineno}")
            if name == "_violation" and any(
                isinstance(arg, ast.Lambda) for arg in [*node.args, *(k.value for k in node.keywords)]
            ):
                problems.append(f"{function.name} passes _violation a lambda on line {node.lineno}")
    assert problems == []


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


def _private_definitions(statement: ast.stmt) -> list[str]:
    """The private (single-underscore) module-level names a statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _mentioned(statement: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    mentioned = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            mentioned.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            mentioned.update(alias.name for alias in node.names)
    return mentioned


def test_every_private_module_name_is_used():
    # a private name is read by a statement of src other than the one that
    # defines it (a recursive call alone does not count)
    statements = [
        (path.name, statement)
        for path in sorted((ROOT / "src" / "maxplus_tc").glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    mentions = [_mentioned(statement) for _, statement in statements]
    unused = [
        f"{module}:{statement.lineno} {name}"
        for i, (module, statement) in enumerate(statements)
        for name in _private_definitions(statement)
        if not any(name in names for j, names in enumerate(mentions) if j != i)
    ]
    assert unused == []
    assert sum(len(_private_definitions(s)) for _, s in statements) > 20  # the walk saw them


# the functions that store a trace through the unchecked Trace._of: each
# builds its columns from checked inputs, and the tests of each show that
# what it stores passes Trace's checks
UNCHECKED_TRACE_BUILDERS = [
    "aggregation.py _merge",
    "generators.py gen_extremal_lambda_nu",
    "generators.py gen_jittered",
    "generators.py gen_periodic",
    "generators.py gen_tspec_extremal",
    "suite.py _arbitrary_trace",
    "suite.py _shift",
    "suite.py _thin",
    "trace.py read_trace_csv",
]


def test_unchecked_trace_constructions_are_allow_listed():
    # any call of an attribute named _of, whatever it is called on, counts;
    # a site is named by its top-level function or class, or else its line
    sites = sorted(
        f"{path.name} {getattr(statement, 'name', statement.lineno)}"
        for path in sorted((ROOT / "src" / "maxplus_tc").glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_of"
    )
    assert sites == UNCHECKED_TRACE_BUILDERS


# the constructors that store fields themselves: Record.__init__ stores those
# of every plain record, and a record that checks its values keeps its own
FIELD_STORES = [
    "_record.py Record.__init__",
    "models.py LambdaNuModel.__init__",
    "models.py MaxPlusCurve.__init__",
    "models.py SigmaRhoModel.__init__",
    "models.py TSpecModel.__init__",
    "suite.py SuiteConfig.__init__",
    "trace.py Trace.__init__",
    "trace.py Trace._of",
]


def test_field_stores_are_allow_listed():
    # any use of object.__setattr__, called or not, counts; a site is named
    # by its class and method, by its top-level function, or else by its line
    sites = set()
    for path in sorted((ROOT / "src" / "maxplus_tc").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{statement.name}." if isinstance(statement, ast.ClassDef) else ""
            for member in statement.body if owner else [statement]:
                sites.update(
                    f"{path.name} {owner}{getattr(member, 'name', member.lineno)}"
                    for node in ast.walk(member)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"
                )
    assert sorted(sites) == FIELD_STORES


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


# the sha256 of each demo's stdout: a change of any number a demo prints
# shows here
DEMO_DIGESTS = {
    "01_traces_and_conformance.py": "2e8310653b8791cce880d0d9010c99813bb8285d86d28f0162109c9ac15a07bb",
    "02_fitting_and_generators.py": "190a14e3a461fcd74f4454d72ddb855305da01b2b449f9cd45bf348e06d8368a",
    "03_model_mappings.py": "4dc2e833aaf81e868f75007928ed15501c0876adf307da9e2f7b2b9fcf963840",
    "04_superposition.py": "98a41b6dcf3d7c70e4d1d30c027cfc2b17e1ae21b23cdfbfe4d69a2b55ad145f",
    "05_comparison_table.py": "31b2d54c231cf80f80501af3e28e457949adce792d71dbfcb55628144c4a3ea9",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, demo], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip(), done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_DIGESTS[demo.name]


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # under the repo's warning filters, hypothesis's failure report must not
    # end the session, so the test file collected after it still runs
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n"
    )
    (tmp_path / "test_b.py").write_text("def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
