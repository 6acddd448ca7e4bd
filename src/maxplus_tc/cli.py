"""Command-line interface.

Every subcommand is a thin adapter over one library operation: it imports
the modules it runs, loads the input files, calls the operation, and
serializes the result (JSON by default, ``--format text`` for a human view).
The exit codes are those ``_DESCRIPTION``, the ``--help`` text, lists.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from itertools import chain

from .errors import FormatError, TrafficModelError

# the most pairs `check --max-tight all` lists: 10^5 and their JSON take ~38 MiB
MAX_TIGHT_ALL = 100_000


# the --help description; the module docstring is for the code's readers
_DESCRIPTION = """Exact traffic envelopes for packet traces: conformance checks, tightest
fits, model mappings, superposition and trace generation, all in rational
arithmetic.  Exit codes: 0 success or conforms, 1 violation, counterexample
or domain failure, 2 usage error, 3 I/O or parse error; a failure prints a
JSON error object to stderr."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # emit JSON instead of argparse's usage text
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)


def _print(obj, fmt: str, text: str | None = None) -> None:
    """Write ``obj`` as indented JSON, or its text view: ``text`` when given,
    else the compact JSON."""
    if fmt == "text":
        sys.stdout.write(json.dumps(obj) + "\n" if text is None else text)
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _write_out(path: str, *pieces: str) -> None:
    """Write ``pieces`` to the output path ``path``: to stdout when it is ``-``."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
            raise FormatError(f"{path}: {exc}") from None


def _only(applies: bool, args, where: str, *dests: str) -> None:
    """Refuse the options named by ``dests`` that were given where they do nothing."""
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given and not applies:
        raise _UsageError(f"{', '.join(given)}: valid only {where}")


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
    from .conformance import CHECKERS, report_to_json
    from .models import model_from_json
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace)
    model = model_from_json(_load_json(args.model))
    max_tight = MAX_TIGHT_ALL if args.max_tight is None else args.max_tight
    if type(model) not in CHECKERS:
        raise _UsageError(
            "a max-plus curve is not directly checkable; map it to a rate/burst model first"
        )
    report = CHECKERS[type(model)](trace, model, max_tight=max_tight)
    if args.max_tight is None and report.truncated:
        raise _UsageError(f"--max-tight all lists at most {MAX_TIGHT_ALL} tight pairs, not "
                          f"{report.tight_count}; give a count K to list the first K")
    if args.format == "text":
        sys.stdout.write(_report_text(report))
    else:
        _print(report_to_json(report), args.format)
    return 0 if report.conforms else 1


def _cmd_fit(args) -> int:
    from .conformance import fit_lambda_nu, fit_result_to_json, fit_tspec
    from .models import WindowMode
    from .trace import read_trace_csv

    trace = read_trace_csv(args.trace)
    chosen = [opt for opt in (args.rate, args.burst, args.interval) if opt is not None]
    if len(chosen) != 1:
        raise _UsageError("give exactly one of --rate, --burst, --interval")
    _only(args.interval is not None, args, "with --interval", "mode")
    if args.rate is not None:
        result = fit_lambda_nu(trace, lam=args.rate)
    elif args.burst is not None:
        result = fit_lambda_nu(trace, nu=args.burst)
    else:
        result = fit_tspec(trace, args.interval, WindowMode(args.mode or "closed"))
    _print(fit_result_to_json(result), args.format)
    return 0


def _cmd_map(args) -> int:
    from .algebra import curve_to_lambda_nu, map_lambda_nu_to_tspec, map_tspec_to_lambda_nu
    from .models import (
        LambdaNuModel, MappingVariant, MaxPlusCurve, TSpecModel, model_from_json, model_to_json,
    )

    model = model_from_json(_load_json(args.model))
    _only(isinstance(model, LambdaNuModel), args, "for a lambda_nu model", "variant", "j")
    if isinstance(model, LambdaNuModel):
        variant = MappingVariant(args.variant or "a")
        obj = model_to_json(map_lambda_nu_to_tspec(model, variant, 1 if args.j is None else args.j))
    elif isinstance(model, TSpecModel):
        obj = model_to_json(map_tspec_to_lambda_nu(model))
    elif isinstance(model, MaxPlusCurve):
        obj = model_to_json(curve_to_lambda_nu(model))
        obj["horizon"] = model.horizon
    else:
        raise _UsageError(f"no mapping defined for model type {type(model).__name__}")
    _print(obj, args.format)
    return 0


def _cmd_superpose(args) -> int:
    from .algebra import SUPERPOSE, superpose_indirect
    from .models import LambdaNuModel, model_from_json, model_to_json

    _only(args.indirect, args, "with --indirect", "max_lengths", "min_length")
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
        result = superpose_indirect(models, args.max_lengths, args.min_length)
    elif kind in SUPERPOSE:
        result = SUPERPOSE[kind](models)
    else:
        raise _UsageError("max-plus curves cannot be superposed directly; reduce them first")
    _print(model_to_json(result), args.format)
    return 0


def _cmd_merge(args) -> int:
    from .aggregation import _merge, _origins
    from .trace import read_trace_csv, write_trace_csv

    traces = [read_trace_csv(path) for path in args.traces]
    merged, order = _merge(traces)
    _write_out(args.out, write_trace_csv(merged))
    del merged  # the aggregate, the flows and the order never sit beside the text
    if args.provenance:  # in the layout of json.dumps(..., indent=2)
        record = '{\n      "flow": %d,\n      "index": %%d\n    }'
        records = [record % f for f in range(len(traces))]
        flows, indices = _origins(traces, order)
        del traces, order
        text = ",\n    ".join(map(records.__getitem__, flows)) % indices
        # the text is written between its brackets, never copied into them
        opening, closing = ("[\n    ", "\n  ]") if flows else ("[", "]")
        _write_out(args.provenance, '{\n  "packets": ', opening, text, closing, "\n}\n")
    return 0


# the options each generator kind reads, besides --count and --out
_GENERATE_READS = {
    "periodic": ("period", "phase"),
    "extremal": ("rate", "burst"),
    "tspec-bursts": ("interval", "k_max", "mode"),
    "jittered": ("period", "jitter", "seed", "model_out"),
}


def _cmd_generate(args) -> int:
    from .generators import gen_extremal_lambda_nu, gen_jittered, gen_periodic, gen_tspec_extremal
    from .models import LambdaNuModel, TSpecModel, WindowMode, model_to_json
    from .trace import write_trace_csv

    kind = args.kind
    reads = _GENERATE_READS[kind]
    unread = [dest for dest in dict.fromkeys(chain(*_GENERATE_READS.values())) if dest not in reads]
    _only(False, args, f"with a --kind that reads them, not {kind}", *unread)

    def need(dest):
        value = getattr(args, dest)
        if value is None:
            raise _UsageError(f"--kind {kind} needs --{dest.replace('_', '-')}")
        return value

    count = need("count")
    if kind == "periodic":
        trace = gen_periodic(need("period"), args.phase or 0, count)
    elif kind == "extremal":
        model = LambdaNuModel(lam=need("rate"), nu=args.burst or 0)
        trace = gen_extremal_lambda_nu(model, count)
    elif kind == "tspec-bursts":
        tspec = TSpecModel(
            tau=need("interval"),
            k_max=need("k_max"),
            window_mode=WindowMode(args.mode or "closed"),
        )
        trace = gen_tspec_extremal(tspec, count)
    else:
        trace, fitted = gen_jittered(
            need("period"), args.jitter or 0, args.seed or 0, count
        )
    _write_out(args.out, write_trace_csv(trace))
    if args.model_out:  # given only with --kind jittered
        _write_out(args.model_out, json.dumps(model_to_json(fitted), indent=2), "\n")
    return 0


def _cmd_table1(args) -> int:
    from .table1 import render_table1_text, reproduce_table1, table1_to_json

    rows = reproduce_table1()
    _print(table1_to_json(rows), args.format, render_table1_text(rows))
    return 0


def _cmd_suite(args) -> int:
    from .suite import SuiteConfig, run_property_suite

    # an option not given keeps SuiteConfig's default
    given = {dest: getattr(args, dest) for dest in SuiteConfig.__slots__}
    cfg = SuiteConfig(**{dest: value for dest, value in given.items() if value is not None})
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
    """``--max-tight``: a count of pairs to list, or ``all``, which a count
    above MAX_TIGHT_ALL is read as."""
    if text == "all":
        return None
    count = _integer(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer or 'all', got {text!r}")
    return None if count > MAX_TIGHT_ALL else count


def _rational(text: str):
    """A rational option, ``N``, ``N/D`` or ``N.D``; argparse names the option it fails."""
    from .rational import parse_rational

    return _option_value(parse_rational, text)


def _integer(text: str):
    """An integer option, ``N``; argparse names the option it fails."""
    from .rational import parse_integer

    return _option_value(parse_integer, text)


def _option_value(parse, text: str):
    try:
        return parse(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxplus-tc", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a trace against a model")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    # bounded by default: a periodic trace at its own rate has N(N-1)/2 tight pairs
    p.add_argument("--max-tight", type=_max_tight, default=1000, metavar="K",
                   help="list the first K tight pairs, or 'all' (default %(default)s; "
                   f"'all' and any K above {MAX_TIGHT_ALL} refuse more than {MAX_TIGHT_ALL}); "
                   "the count is always exact")
    _add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("fit", help="fit the tightest model to a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rate", type=_rational, help="fix the packet rate, fit the burst allowance")
    p.add_argument("--burst", type=_rational, help="fix the burst allowance, fit the packet rate")
    p.add_argument("--interval", type=_rational,
                   help="fit the packet budget for windows of this length")
    p.add_argument("--mode", choices=("closed", "open"), help="--interval window; default closed")
    _add_format(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("map", help="map a model into the other family")
    p.add_argument("--model", required=True)
    p.add_argument("--variant", choices=("a", "b"), help="lambda_nu models; default a")
    p.add_argument("--j", type=_integer,
                   help="window multiple (>= 1) for lambda_nu models; default 1")
    _add_format(p)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("superpose", help="envelope of the aggregate of flows")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--indirect", action="store_true",
                   help="use the packet-length detour (rate/burst models only)")
    p.add_argument("--max-lengths", nargs="+", type=_rational, dest="max_lengths")
    p.add_argument("--min-length", type=_rational, dest="min_length")
    _add_format(p)
    p.set_defaults(handler=_cmd_superpose)

    p = sub.add_parser("merge", help="merge traces into one aggregate trace")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--provenance", help="write per-packet origin JSON here")
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("generate", help="generate a trace")
    p.add_argument("--kind", required=True, choices=tuple(_GENERATE_READS))
    p.add_argument("--period", type=_integer)
    p.add_argument("--phase", type=_integer)
    p.add_argument("--count", type=_integer)
    p.add_argument("--rate", type=_rational)
    p.add_argument("--burst", type=_rational)
    p.add_argument("--interval", type=_rational)
    p.add_argument("--k-max", type=_integer, dest="k_max")
    p.add_argument("--mode", choices=("closed", "open"))
    p.add_argument("--jitter", type=_integer)
    p.add_argument("--seed", type=_integer)
    p.add_argument("--out", default="-")
    p.add_argument("--model-out", dest="model_out",
                   help="write the fitted model here (jittered kind)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("table1", help="four-case superposition comparison table")
    _add_format(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("suite", help="run the randomized validation suite")
    p.add_argument("--seed", type=_integer)
    p.add_argument("--trials", type=_integer)
    p.add_argument("--max-flows", type=_integer, dest="max_flows")
    p.add_argument("--max-packets", type=_integer, dest="max_packets")
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
    """The process entry; ``run()`` is the in-process API.  Ends the process
    as the interpreter's exit would, in its order, but frees nothing."""
    gc.disable()  # the collector would only re-walk packets
    code = run(sys.argv[1:])
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:  # output still buffered, as to a full disk or a closed pipe
        _emit_error("io", str(exc))
        code = 3
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
