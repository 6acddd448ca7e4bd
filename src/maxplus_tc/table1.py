"""Four-case comparison of the direct and length-based superposition routes.

Each case superposes two periodic flows, the fast one at one packet per
period and the slow one at one per two periods, and holds the aggregate's
rate/burst model from both routes.  A row is written as the inter-arrival
lower-bound curve ``coeff * (n - offset)+`` with ``coeff = 1/lambda`` and
``offset = nu``.  The period is the unit of time, so each coefficient reads
as a multiple of it: the operators are homogeneous in the period, and the
table is symbolic in it.  The rows are computed by running the superposition
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
from .models import LambdaNuModel
from .rational import rational_to_json


class Table1Row(Record):
    """One case: the superposed model of the direct route, and of the length
    detour (None when the case has no lengths)."""

    __slots__ = ("case_id", "direct", "indirect")


def reproduce_table1() -> list[Table1Row]:
    """Build all four comparison rows by invoking the superposition
    operators on the case inputs, with the period as the unit of time."""
    fast = LambdaNuModel(lam=Fraction(1), nu=Fraction(0))
    slow = LambdaNuModel(lam=Fraction(1, 2), nu=Fraction(0))
    cases = [
        (1, [fast, fast], None),
        (2, [fast, fast], [1, 1]),  # packet lengths in units of the shortest
        (3, [fast, slow], [1, 1]),
        (4, [fast, slow], [1, 2]),
    ]
    return [
        Table1Row(
            case_id,
            superpose_lambda_nu(flows),
            None if lengths is None else superpose_indirect(flows, lengths, 1),
        )
        for case_id, flows, lengths in cases
    ]


def _curve_json(case_id: int, model: LambdaNuModel | None) -> dict | None:
    if model is None:
        return None
    if model.nu.denominator != 1:  # the JSON offset is an int: never round nu
        raise ValueError(f"case {case_id}: offset nu = {model.nu} is not an integer")
    return {"coeff": rational_to_json(1 / model.lam), "offset": model.nu.numerator}


def _format_curve(model: LambdaNuModel | None) -> str:
    if model is None:
        return "not available"
    c = 1 / model.lam
    if c == 1:
        coeff = "tau"
    elif c.numerator == 1:
        coeff = f"tau/{c.denominator}"
    elif c.denominator == 1:
        coeff = f"{c.numerator}*tau"
    else:
        coeff = f"{c.numerator}*tau/{c.denominator}"
    return f"({coeff})*(n-{model.nu})+"


def table1_to_json(rows: list[Table1Row]) -> list[dict]:
    return [
        {
            "case_id": row.case_id,
            "direct_curve": _curve_json(row.case_id, row.direct),
            "indirect_curve": _curve_json(row.case_id, row.indirect),
        }
        for row in rows
    ]


def render_table1_text(rows: list[Table1Row]) -> str:
    lines = [f"{'case':<6}{'direct':<22}indirect"]
    for row in rows:
        lines.append(
            f"{row.case_id:<6}"
            f"{_format_curve(row.direct):<22}"
            f"{_format_curve(row.indirect)}"
        )
    return "\n".join(lines) + "\n"
