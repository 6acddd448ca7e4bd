"""Exact rational arithmetic helpers.

All model parameters in this package are exact rationals, backed by the
standard library ``fractions.Fraction`` (always stored in lowest terms with
a positive denominator, value equality, exact add/sub/mul/div/compare).
A parameter is given as a Fraction or an int (:func:`as_fraction`); a float
or a bool is refused, so verdicts never touch floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError

RationalLike = Fraction | int


def as_fraction(value: RationalLike, what: str) -> Fraction:
    """``value`` as a Fraction: a Fraction unchanged, an int converted; a bool, a
    float (whose binary value is rarely the rational meant) or any other type is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is a bool, not a Fraction or an int")
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"{what} {value!r} is not a Fraction or an int")


def rational_to_json(x: RationalLike) -> dict:
    """Encode as ``{"num": int, "den": int}`` (lowest terms, den > 0)."""
    x = as_fraction(x, "rational")
    return {"num": x.numerator, "den": x.denominator}


def rational_from_json(obj: object) -> Fraction:
    """Decode ``{"num": int, "den": int}``; bare ints are accepted too, and
    any other key is refused by name."""
    if isinstance(obj, bool):
        raise FormatError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise FormatError(f"rational object missing key: {exc}") from None
        if len(obj) > 2:
            raise FormatError(f"rational JSON key {min(obj.keys() - {'num', 'den'})!r} is not read")
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
            raise FormatError(f"rational num/den must be integers: {obj!r}")
        if den == 0:
            raise FormatError("rational denominator must be nonzero")
        return Fraction(num, den)
    raise FormatError(f"not a rational: {obj!r}")


def _ascii_number(text: str, what: str) -> str:
    """``text`` without surrounding spaces, refused when it holds what int()
    and Fraction() take but the trace reader does not: a character that is
    not ASCII (such as an Arabic-Indic digit), a ``+`` or a ``_``."""
    body = text.strip()
    if not body.isascii() or "+" in body or "_" in body:
        raise FormatError(f"cannot parse {what} {text!r}: use ASCII digits, with no '+' or '_'")
    return body


def parse_integer(text: str) -> int:
    """Parse a command-line integer: ``"N"``, with an optional leading ``-``."""
    try:
        return int(_ascii_number(text, "integer"))
    except ValueError as exc:
        raise FormatError(f"cannot parse integer {text!r}: {exc}") from None


def parse_rational(text: str) -> Fraction:
    """Parse a command-line rational: ``"N"``, ``"N/D"`` or a decimal ``"N.D"``,
    with an optional leading ``-``, in ASCII as :func:`parse_integer` reads.
    The exponent form (``1e5``) is refused: a few of its characters can stand
    for an integer of any size."""
    if "e" in text.lower():
        raise FormatError(f"cannot parse rational {text!r}: use N, N/D or N.D, not an exponent")
    try:
        return Fraction(_ascii_number(text, "rational"))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse rational {text!r}: {exc}") from None
