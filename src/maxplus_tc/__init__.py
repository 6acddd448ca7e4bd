"""Exact traffic calculus for packet arrival processes.

The package models a flow by when its packets arrive (integer ticks) and
reasons about three envelope families with exact rational arithmetic:
packet-domain rate/burst envelopes on arrival times, TSN/DetNet traffic
specifications (packet budgets per window), and bit-domain rate/burst
envelopes on cumulative traffic.  It provides conformance checkers with
violation witnesses, tightest-envelope fitting, mappings between the
families, superposition operators for aggregated flows, trace generators,
and a seeded randomized validation suite.

Each exported name is imported from its submodule on first use, so a
caller loads only the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "aggregation": "PacketOrigin merge_traces merge_traces_with_provenance",
    "algebra": "CurveReduction curve_to_lambda_nu map_lambda_nu_to_tspec map_tspec_to_lambda_nu "
               "superpose_indirect superpose_lambda_nu superpose_sigma_rho superpose_tspec",
    "conformance": "ConformanceReport FitResult Witness check_lambda_nu check_sigma_rho "
                   "check_tspec fit_lambda_nu fit_result_to_json fit_tspec max_window_count "
                   "report_to_json",
    "errors": "DegenerateCurveError FormatError GridError InconsistentInputError "
              "InfeasibleFitError MissingLengthsError TrafficModelError UnboundedFitError",
    "generators": "Lcg64 gen_extremal_lambda_nu gen_jittered gen_periodic gen_tspec_extremal",
    "models": "IndirectInputs LambdaNuModel MappingVariant MaxPlusCurve SigmaRhoModel TSpecModel "
              "WindowMode model_from_json model_to_json",
    "rational": "ceil_div parse_rational rational_from_json rational_to_json",
    "reference": "aggregate_eq1 check_lambda_nu_via_convolution check_tspec_pairwise",
    "suite": "PROPERTY_NAMES PropertyReport SuiteConfig SuiteSummary run_property "
             "run_property_suite",
    "table1": "CurveSpec Table1Row render_table1_text reproduce_table1 table1_to_json",
    "trace": "Trace cumulative interarrival read_trace_csv write_trace_csv",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
