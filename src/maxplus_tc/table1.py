"""Four-case comparison of the direct and length-based superposition routes.

Each case superposes two periodic flows and reports the aggregate's
inter-arrival lower-bound curve ``coeff * (n - offset)+`` from both routes.
Coefficients are rational multiples of the base period, so the table is
symbolic in the period.  The rows are computed by running the superposition
operators on the case inputs, never hard-coded:

* case 1: equal periods, no length information (the length-based route is
  unavailable);
* case 2: equal periods, equal packet lengths;
* case 3: one flow at twice the period, equal lengths;
* case 4: one flow at twice the period and twice the length (both flows
  then carry the same average bit rate).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .algebra import superpose_indirect, superpose_lambda_nu
from .models import IndirectInputs, LambdaNuModel
from .rational import RationalLike, rational_to_json


class CurveSpec(Record):
    """Inter-arrival lower bound ``coeff * (n - offset)+``, with ``coeff``
    a rational multiple of the base period."""

    __slots__ = ("coeff", "offset")

    def __init__(self, coeff: Fraction, offset: int):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "offset", offset)


class Table1Row(Record):
    __slots__ = ("case_id", "direct_curve", "indirect_curve")

    def __init__(self, case_id: int, direct_curve: CurveSpec, indirect_curve: CurveSpec | None):
        object.__setattr__(self, "case_id", case_id)
        object.__setattr__(self, "direct_curve", direct_curve)
        object.__setattr__(self, "indirect_curve", indirect_curve)


def _curve_of(model: LambdaNuModel, period: Fraction) -> CurveSpec:
    if model.nu.denominator != 1:
        raise ValueError(f"expected an integer burst allowance, got {model.nu}")
    return CurveSpec(coeff=(1 / model.lam) / period, offset=int(model.nu))


def reproduce_table1(period: RationalLike = 1) -> list[Table1Row]:
    """Build all four comparison rows by invoking the superposition
    operators on the case inputs.

    ``period`` is the base period the coefficients are normalized by;
    the rows are the same for every choice (the operators are homogeneous
    in it), which is what keeps the table symbolic.
    """
    period = Fraction(period)
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    length = Fraction(1)  # unit packet length; only ratios matter

    flow_fast = LambdaNuModel(lam=1 / period, nu=Fraction(0))
    flow_slow = LambdaNuModel(lam=1 / (2 * period), nu=Fraction(0))

    cases: list[tuple[int, list[LambdaNuModel], list[Fraction] | None]] = [
        (1, [flow_fast, flow_fast], None),
        (2, [flow_fast, flow_fast], [length, length]),
        (3, [flow_fast, flow_slow], [length, length]),
        (4, [flow_fast, flow_slow], [length, 2 * length]),
    ]
    rows = []
    for case_id, flows, lengths in cases:
        direct = _curve_of(superpose_lambda_nu(flows), period)
        indirect = None
        if lengths is not None:
            inputs = IndirectInputs(
                models=tuple(flows),
                max_lengths=tuple(lengths),
                min_length=length,
            )
            indirect = _curve_of(superpose_indirect(inputs), period)
        rows.append(Table1Row(case_id=case_id, direct_curve=direct, indirect_curve=indirect))
    return rows


def _format_curve(curve: CurveSpec | None) -> str:
    if curve is None:
        return "not available"
    c = curve.coeff
    if c == 1:
        coeff = "tau"
    elif c.numerator == 1:
        coeff = f"tau/{c.denominator}"
    elif c.denominator == 1:
        coeff = f"{c.numerator}*tau"
    else:
        coeff = f"{c.numerator}*tau/{c.denominator}"
    return f"({coeff})*(n-{curve.offset})+"


def table1_to_json(rows: list[Table1Row]) -> list[dict]:
    out = []
    for row in rows:
        indirect = None
        if row.indirect_curve is not None:
            indirect = {
                "coeff": rational_to_json(row.indirect_curve.coeff),
                "offset": row.indirect_curve.offset,
            }
        out.append(
            {
                "case_id": row.case_id,
                "direct_curve": {
                    "coeff": rational_to_json(row.direct_curve.coeff),
                    "offset": row.direct_curve.offset,
                },
                "indirect_curve": indirect,
            }
        )
    return out


def render_table1_text(rows: list[Table1Row]) -> str:
    lines = [f"{'case':<6}{'direct':<22}indirect"]
    for row in rows:
        lines.append(
            f"{row.case_id:<6}"
            f"{_format_curve(row.direct_curve):<22}"
            f"{_format_curve(row.indirect_curve)}"
        )
    return "\n".join(lines) + "\n"
