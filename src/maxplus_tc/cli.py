"""Command-line interface.

Every subcommand is a thin adapter over one library operation: it imports
the modules it runs, loads the input files, calls the operation, and
serializes the result (JSON by default, ``--format text`` for a human view).

Exit codes: 0 success/conforms, 1 violation/counterexample/domain failure,
2 usage error, 3 I/O or parse error.  Failures print a machine-readable
error object to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import FormatError, TrafficModelError

SEED_ENV_VAR = "MAXPLUS_TC_SEED"
# the most pairs `check --max-tight all` lists: 10^5 and their JSON take ~24 MiB
MAX_TIGHT_ALL = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # emit JSON instead of argparse's usage text
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)


def _json_text(obj, indent: str = "") -> str:
    """The text ``json.dumps`` writes with an indent of 2, byte for byte, for
    the values the CLI emits: dicts with str keys, lists, tuples, ints, strs,
    bools and None.  A NamedTuple is written as the dict of its fields.

    The stdlib's C encoder has no indent support, so an indented
    ``json.dumps`` runs in pure Python; here a list of same-shape flat int
    rows (tight pairs, provenance records) is rendered by one %-template.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        opening, closing = "{", "}"
        parts = [
            f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()
        ]
        body = f",\n{inner}".join(parts)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        opening, closing = "[", "]"
        body = _int_rows(obj, inner)
        if body is None:
            body = f",\n{inner}".join([_json_text(item, inner) for item in obj])
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def _int_rows(items, indent: str) -> str | None:
    """The items of a list, at ``indent``, if they are all flat int lists or
    tuples of one length, or all flat int NamedTuples of one type (written
    as objects keyed by its fields): one template join with no Python call
    per value.  None for any other list."""
    kinds = set(map(type, items))
    if kinds <= {list, tuple}:
        if len(set(map(len, items))) != 1:
            return None
        opening, closing = "[", "]"
        fields = ["%d"] * len(items[0])
    elif len(kinds) == 1 and isinstance(items[0], tuple) and hasattr(items[0], "_fields"):
        opening, closing = "{", "}"
        fields = [encode_basestring_ascii(key) + ": %d" for key in items[0]._fields]
    else:
        return None
    values = tuple(chain.from_iterable(items))
    if set(map(type, values)) != {int}:  # also rules out bools and empty rows
        return None
    inner = indent + "  "
    row = f"{opening}\n{inner}" + f",\n{inner}".join(fields) + f"\n{indent}{closing}"
    return f",\n{indent}".join([row] * len(items)) % values


def _print(obj, fmt: str, text: str | None = None) -> None:
    """Write ``obj`` as indented JSON, or its text view: ``text`` when given,
    else the compact JSON."""
    if fmt == "text":
        sys.stdout.write(json.dumps(obj) + "\n" if text is None else text)
    else:
        sys.stdout.write(_json_text(obj) + "\n")


def _write_out(path: str, text: str) -> None:
    """Write the text of ``--out``: to stdout when the path is ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _report_text(report) -> str:
    lines = [f"conforms: {'yes' if report.conforms else 'no'}"]
    if report.witness is not None:
        w = report.witness
        lines.append(
            f"violation at ({w.m}, {w.n}): required {w.required}, actual {w.actual}"
        )
    listed = f" (first {len(report.tight_pairs)} listed)" if report.truncated else ""
    lines.append(f"tight pairs: {report.tight_count}{listed}")
    lines.append(f"checked pairs: {report.checked_pairs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    from .conformance import check_lambda_nu, check_sigma_rho, check_tspec, report_to_json
    from .models import LambdaNuModel, SigmaRhoModel, TSpecModel, model_from_json
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace)
    model = model_from_json(_load_json(args.model))
    max_tight = MAX_TIGHT_ALL if args.max_tight is None else args.max_tight
    if isinstance(model, LambdaNuModel):
        report = check_lambda_nu(trace, model, max_tight=max_tight)
    elif isinstance(model, TSpecModel):
        report = check_tspec(trace, model, max_tight=max_tight)
    elif isinstance(model, SigmaRhoModel):
        report = check_sigma_rho(trace, model, max_tight=max_tight)
    else:
        raise _UsageError(
            "a max-plus curve is not directly checkable; map it to a rate/burst model first"
        )
    if args.max_tight is None and report.truncated:
        raise _UsageError(f"--max-tight all lists at most {MAX_TIGHT_ALL} tight pairs, not "
                          f"{report.tight_count}; give a count K to list the first K")
    _print(report_to_json(report), args.format, _report_text(report))
    return 0 if report.conforms else 1


def _cmd_fit(args) -> int:
    from .conformance import fit_lambda_nu, fit_result_to_json, fit_tspec
    from .models import WindowMode
    from .rational import parse_rational
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace)
    chosen = [opt for opt in (args.rate, args.burst, args.interval) if opt is not None]
    if len(chosen) != 1:
        raise _UsageError("give exactly one of --rate, --burst, --interval")
    if args.rate is not None:
        result = fit_lambda_nu(trace, lam=parse_rational(args.rate))
    elif args.burst is not None:
        result = fit_lambda_nu(trace, nu=parse_rational(args.burst))
    else:
        mode = WindowMode(args.mode)
        result = fit_tspec(trace, parse_rational(args.interval), mode)
    _print(fit_result_to_json(result), args.format)
    return 0


def _cmd_map(args) -> int:
    from .algebra import curve_to_lambda_nu, map_lambda_nu_to_tspec, map_tspec_to_lambda_nu
    from .models import (
        LambdaNuModel, MappingVariant, MaxPlusCurve, TSpecModel, model_from_json, model_to_json,
    )

    model = model_from_json(_load_json(args.model))
    if isinstance(model, LambdaNuModel):
        obj = model_to_json(map_lambda_nu_to_tspec(model, MappingVariant(args.variant), args.j))
    elif isinstance(model, TSpecModel):
        obj = model_to_json(map_tspec_to_lambda_nu(model))
    elif isinstance(model, MaxPlusCurve):
        reduction = curve_to_lambda_nu(model)
        obj = model_to_json(reduction.model)
        obj["horizon"] = reduction.horizon
    else:
        raise _UsageError(f"no mapping defined for model type {type(model).__name__}")
    _print(obj, args.format)
    return 0


def _cmd_superpose(args) -> int:
    from .algebra import (
        superpose_indirect, superpose_lambda_nu, superpose_sigma_rho, superpose_tspec,
    )
    from .models import (
        IndirectInputs, LambdaNuModel, SigmaRhoModel, TSpecModel, model_from_json, model_to_json,
    )
    from .rational import parse_rational

    models = [model_from_json(_load_json(path)) for path in args.models]
    kinds = {type(m) for m in models}
    if len(kinds) != 1:
        raise _UsageError("all models must be of the same type")
    kind = kinds.pop()
    if args.indirect:
        if kind is not LambdaNuModel:
            raise _UsageError("--indirect applies to rate/burst models only")
        if args.max_lengths is None or args.min_length is None:
            raise _UsageError("--indirect needs --max-lengths and --min-length")
        lengths = tuple(parse_rational(l) for l in args.max_lengths)
        result = superpose_indirect(
            IndirectInputs(
                models=tuple(models),
                max_lengths=lengths,
                min_length=parse_rational(args.min_length),
            )
        )
    elif kind is LambdaNuModel:
        result = superpose_lambda_nu(models)
    elif kind is TSpecModel:
        result = superpose_tspec(models)
    elif kind is SigmaRhoModel:
        result = superpose_sigma_rho(models)
    else:
        raise _UsageError("max-plus curves cannot be superposed directly; reduce them first")
    _print(model_to_json(result), args.format)
    return 0


def _cmd_merge(args) -> int:
    from .aggregation import merge_traces_with_provenance
    from .trace import read_trace_csv, write_trace_csv

    traces = [read_trace_csv(path) for path in args.traces]
    merged, origins = merge_traces_with_provenance(traces)
    _write_out(args.out, write_trace_csv(merged))
    if args.provenance:
        with open(args.provenance, "w", encoding="utf-8") as fh:
            fh.write(_json_text({"packets": origins}) + "\n")
    return 0


# generator parameters and the JSON types a config may give them: those
# their flags take (a rational is a string, as on the command line, or an int)
_GENERATE_PARAMS = {
    **dict.fromkeys(("kind", "mode"), (str,)),
    **dict.fromkeys(("period", "phase", "count", "k_max", "jitter", "seed"), (int,)),
    **dict.fromkeys(("rate", "burst", "interval"), (str, int)),
}


def _generate_params(args) -> dict:
    params: dict = {}
    if args.config:
        loaded = _load_json(args.config)
        if not isinstance(loaded, dict):
            raise FormatError("generator config must be a JSON object")
        params.update(loaded)
    for key, types in _GENERATE_PARAMS.items():
        value = getattr(args, key)
        if value is not None:
            params[key] = value
        elif key in params and type(params[key]) not in types:  # a bool is no int here
            names = " or ".join(t.__name__ for t in types)
            raise FormatError(
                f"generator config {key!r} must be {names}, got {json.dumps(params[key])}"
            )
    return params


def _cmd_generate(args) -> int:
    from .generators import gen_extremal_lambda_nu, gen_jittered, gen_periodic, gen_tspec_extremal
    from .models import LambdaNuModel, TSpecModel, WindowMode, model_to_json
    from .rational import parse_rational
    from .trace import write_trace_csv

    params = _generate_params(args)
    kind = params.get("kind")
    count = params.get("count", 0)
    fitted = None

    def need(key):
        if key not in params:
            flag = "--" + key.replace("_", "-")
            raise _UsageError(f"--kind {kind} needs {flag} (or {key!r} in --config)")
        return params[key]

    if kind == "periodic":
        trace = gen_periodic(need("period"), params.get("phase", 0), count)
    elif kind == "extremal":
        model = LambdaNuModel(
            lam=parse_rational(str(need("rate"))),
            nu=parse_rational(str(params.get("burst", 0))),
        )
        trace = gen_extremal_lambda_nu(model, count)
    elif kind == "tspec-bursts":
        tspec = TSpecModel(
            tau=parse_rational(str(need("interval"))),
            k_max=need("k_max"),
            window_mode=WindowMode(params.get("mode", "closed")),
        )
        trace = gen_tspec_extremal(tspec, count)
    elif kind == "jittered":
        trace, fitted = gen_jittered(
            need("period"), params.get("jitter", 0), params.get("seed", 0), count
        )
    else:
        raise _UsageError(
            "pick --kind periodic|extremal|tspec-bursts|jittered (or set it in --config)"
        )
    _write_out(args.out, write_trace_csv(trace))
    if fitted is not None and args.model_out:
        with open(args.model_out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(model_to_json(fitted)) + "\n")
    return 0


def _cmd_table1(args) -> int:
    from .table1 import render_table1_text, reproduce_table1, table1_to_json

    rows = reproduce_table1()
    _print(table1_to_json(rows), args.format, render_table1_text(rows))
    return 0


def _cmd_suite(args) -> int:
    from .suite import DEFAULT_SEED, SuiteConfig, run_property_suite

    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed is None:
        seed = DEFAULT_SEED
    cfg = SuiteConfig(
        seed=seed,
        trials=args.trials,
        max_flows=args.max_flows,
        max_packets=args.max_packets,
    )
    summary = run_property_suite(cfg)
    if args.format == "text":
        sys.stdout.write(summary.render_text())
    else:
        _print(summary.to_json_dict(), args.format)
        print(f"suite wall time: {summary.elapsed:.2f} s", file=sys.stderr)
    if summary.warning:
        print(f"warning: {summary.warning}", file=sys.stderr)
    return 0 if summary.failures_total == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _max_tight(text: str) -> int | None:
    """``--max-tight``: a count of pairs to list, or ``all``."""
    if text == "all":
        return None
    if text.isdigit() and text.isascii():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer or 'all', got {text!r}")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxplus-tc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a trace against a model")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    # bounded by default: a periodic trace at its own rate has N(N-1)/2 tight pairs
    p.add_argument("--max-tight", type=_max_tight, default=1000, metavar="K",
                   help="list the first K tight pairs, or 'all' (default %(default)s; "
                   f"'all' refuses more than {MAX_TIGHT_ALL}); the count is always exact")
    _add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("fit", help="fit the tightest model to a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rate", help="fix the packet rate, fit the burst allowance")
    p.add_argument("--burst", help="fix the burst allowance, fit the packet rate")
    p.add_argument("--interval", help="fit the packet budget for windows of this length")
    p.add_argument("--mode", choices=("closed", "open"), default="closed")
    _add_format(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("map", help="map a model into the other family")
    p.add_argument("--model", required=True)
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--j", type=int, default=1, help="window multiple (>= 1)")
    _add_format(p)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("superpose", help="envelope of the aggregate of flows")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--indirect", action="store_true",
                   help="use the packet-length detour (rate/burst models only)")
    p.add_argument("--max-lengths", nargs="+", dest="max_lengths")
    p.add_argument("--min-length", dest="min_length")
    _add_format(p)
    p.set_defaults(handler=_cmd_superpose)

    p = sub.add_parser("merge", help="merge traces into one aggregate trace")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--provenance", help="write per-packet origin JSON here")
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("generate", help="generate a trace")
    p.add_argument("--kind", choices=("periodic", "extremal", "tspec-bursts", "jittered"))
    p.add_argument("--config", help="JSON file with generator parameters (flags override)")
    p.add_argument("--period", type=int)
    p.add_argument("--phase", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--rate")
    p.add_argument("--burst")
    p.add_argument("--interval")
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--mode", choices=("closed", "open"))
    p.add_argument("--jitter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.add_argument("--model-out", dest="model_out",
                   help="write the fitted model here (jittered kind)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("table1", help="four-case superposition comparison table")
    _add_format(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("suite", help="run the randomized validation suite")
    p.add_argument("--seed", type=int, help=f"overrides ${SEED_ENV_VAR}")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-flows", type=int, default=5, dest="max_flows")
    p.add_argument("--max-packets", type=int, default=500, dest="max_packets")
    _add_format(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except (FormatError, OSError) as exc:
        _emit_error("io", str(exc))
        return 3
    except TrafficModelError as exc:
        _emit_error("domain", str(exc))
        return 1
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return 2


def main() -> None:
    gc.disable()  # exit frees by reference counting; the collector only re-walks packets
    sys.exit(run(sys.argv[1:]))
