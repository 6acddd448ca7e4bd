"""Exact traffic calculus for packet arrival processes.

The package models a flow by when its packets arrive (integer ticks) and
reasons about three envelope families with exact rational arithmetic:
packet-domain rate/burst envelopes on arrival times, TSN/DetNet traffic
specifications (packet budgets per window), and bit-domain rate/burst
envelopes on cumulative traffic.  It provides conformance checkers with
violation witnesses, tightest-envelope fitting, mappings between the
families, superposition operators for aggregated flows, trace generators,
and a seeded randomized validation suite.
"""

from .aggregation import PacketOrigin, merge_traces, merge_traces_with_provenance
from .algebra import (
    CurveReduction,
    curve_to_lambda_nu,
    map_lambda_nu_to_tspec,
    map_tspec_to_lambda_nu,
    maxplus_convolve,
    minplus_convolve,
    superpose_indirect,
    superpose_lambda_nu,
    superpose_sigma_rho,
    superpose_tspec,
)
from .conformance import (
    ConformanceReport,
    FitResult,
    Witness,
    check_lambda_nu,
    check_sigma_rho,
    check_tspec,
    fit_lambda_nu,
    fit_result_to_json,
    fit_tspec,
    max_window_count,
    report_to_json,
)
from .errors import (
    DegenerateCurveError,
    FormatError,
    GridError,
    InconsistentInputError,
    InfeasibleFitError,
    MissingLengthsError,
    TrafficModelError,
    UnboundedFitError,
)
from .generators import (
    Lcg64,
    gen_extremal_lambda_nu,
    gen_jittered,
    gen_periodic,
    gen_tspec_extremal,
)
from .models import (
    IndirectInputs,
    LambdaNuModel,
    MappingVariant,
    MaxPlusCurve,
    SigmaRhoModel,
    TSpecModel,
    WindowMode,
    model_from_json,
    model_to_json,
    variant_from_json,
    variant_to_json,
)
from .rational import ceil_div, parse_rational, rational_from_json, rational_to_json
from .reference import aggregate_eq1, check_lambda_nu_via_convolution, check_tspec_pairwise
from .suite import (
    PROPERTY_NAMES,
    PropertyReport,
    SuiteConfig,
    SuiteSummary,
    run_property,
    run_property_suite,
)
from .table1 import CurveSpec, Table1Row, render_table1_text, reproduce_table1, table1_to_json
from .trace import Trace, cumulative, interarrival, read_trace_csv, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "CurveReduction",
    "CurveSpec",
    "ConformanceReport",
    "DegenerateCurveError",
    "FitResult",
    "FormatError",
    "GridError",
    "IndirectInputs",
    "InconsistentInputError",
    "InfeasibleFitError",
    "LambdaNuModel",
    "Lcg64",
    "MappingVariant",
    "MaxPlusCurve",
    "MissingLengthsError",
    "PacketOrigin",
    "PROPERTY_NAMES",
    "PropertyReport",
    "SigmaRhoModel",
    "SuiteConfig",
    "SuiteSummary",
    "Table1Row",
    "Trace",
    "TrafficModelError",
    "TSpecModel",
    "UnboundedFitError",
    "WindowMode",
    "Witness",
    "aggregate_eq1",
    "ceil_div",
    "check_lambda_nu",
    "check_lambda_nu_via_convolution",
    "check_sigma_rho",
    "check_tspec",
    "check_tspec_pairwise",
    "cumulative",
    "curve_to_lambda_nu",
    "fit_lambda_nu",
    "fit_result_to_json",
    "fit_tspec",
    "gen_extremal_lambda_nu",
    "gen_jittered",
    "gen_periodic",
    "gen_tspec_extremal",
    "interarrival",
    "map_lambda_nu_to_tspec",
    "map_tspec_to_lambda_nu",
    "max_window_count",
    "maxplus_convolve",
    "merge_traces",
    "merge_traces_with_provenance",
    "minplus_convolve",
    "model_from_json",
    "model_to_json",
    "parse_rational",
    "rational_from_json",
    "rational_to_json",
    "read_trace_csv",
    "render_table1_text",
    "report_to_json",
    "reproduce_table1",
    "run_property",
    "run_property_suite",
    "superpose_indirect",
    "superpose_lambda_nu",
    "superpose_sigma_rho",
    "superpose_tspec",
    "table1_to_json",
    "variant_from_json",
    "variant_to_json",
    "write_trace_csv",
]
