"""The numeric-argument rules of the library, stated once in
``maxplus_tc.rational``: an integer parameter refuses a bool, a float and a
value below its floor with one message, and a rational parameter with a sign
word refuses a value without that sign."""

from fractions import Fraction

import pytest

from maxplus_tc import (
    LambdaNuModel,
    SigmaRhoModel,
    SuiteConfig,
    TSpecModel,
    WindowMode,
    gen_extremal_lambda_nu,
    gen_jittered,
    gen_periodic,
    gen_tspec_extremal,
    map_lambda_nu_to_tspec,
)
from maxplus_tc.rational import as_fraction

# each integer parameter: a call that passes the value to it, its floor, and
# the name its refusal gives
INTEGERS = {
    "gen_periodic-period": (lambda v: gen_periodic(v, 0, 3), 1, "period"),
    "gen_periodic-phase": (lambda v: gen_periodic(2, v, 3), 0, "phase"),
    "gen_periodic-count": (lambda v: gen_periodic(2, 0, v), 0, "count"),
    "gen_extremal_lambda_nu-count": (
        lambda v: gen_extremal_lambda_nu(LambdaNuModel(Fraction(1, 3), 1), v), 0, "count"),
    "gen_tspec_extremal-count": (lambda v: gen_tspec_extremal(TSpecModel(5, 2), v), 0, "count"),
    "gen_jittered-period": (lambda v: gen_jittered(v, 0, 7, 3), 1, "period"),
    "gen_jittered-count": (lambda v: gen_jittered(4, 1, 7, v), 0, "count"),
    "map_lambda_nu_to_tspec-j": (
        lambda v: map_lambda_nu_to_tspec(LambdaNuModel(1, 0), WindowMode.CLOSED, v),
        1, "window multiple j"),
    "TSpecModel-k_max": (lambda v: TSpecModel(10, v), 1, "k_max"),
    "SuiteConfig-trials": (lambda v: SuiteConfig(trials=v), 0, "trials"),
    "SuiteConfig-max_flows": (lambda v: SuiteConfig(max_flows=v), 2, "max_flows"),
    "SuiteConfig-max_packets": (lambda v: SuiteConfig(max_packets=v), 1, "max_packets"),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below floor"])
@pytest.mark.parametrize("call, floor, what", INTEGERS.values(), ids=INTEGERS)
def test_integer_parameter_refuses_with_one_message(call, floor, what, kind):
    value = {"bool": True, "float": float(floor), "below floor": floor - 1}[kind]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be an integer >= {floor}, got {value!r}"


@pytest.mark.parametrize("call, floor, what", INTEGERS.values(), ids=INTEGERS)
def test_integer_parameter_accepts_its_floor(call, floor, what):
    call(floor)


@pytest.mark.parametrize("jitter", [True, 1.0, -1, 4])
def test_jitter_is_refused_outside_the_period_with_its_two_sided_message(jitter):
    with pytest.raises(ValueError) as info:
        gen_jittered(4, jitter, 7, 3)
    assert str(info.value) == f"jitter must be in [0, period-1], got {jitter!r}"


@pytest.mark.parametrize("jitter", [0, 3])
def test_jitter_is_accepted_inside_the_period(jitter):
    gen_jittered(4, jitter, 7, 3)


# each rational parameter with a sign word: a call that passes the value to
# it, its word, and the name its refusal gives
SIGNED = {
    "as_fraction-positive": (lambda v: as_fraction(v, "x", "positive"), "positive", "x"),
    "as_fraction-nonnegative": (lambda v: as_fraction(v, "x", "nonnegative"), "nonnegative", "x"),
    "LambdaNuModel-lam": (lambda v: LambdaNuModel(v, 0), "positive", "rate"),
    "LambdaNuModel-nu": (lambda v: LambdaNuModel(1, v), "nonnegative", "burst allowance"),
    "TSpecModel-tau": (lambda v: TSpecModel(v, 1), "positive", "interval"),
    "SigmaRhoModel-sigma": (lambda v: SigmaRhoModel(v, 1), "nonnegative", "burst"),
    "SigmaRhoModel-rho": (lambda v: SigmaRhoModel(0, v), "positive", "rate"),
}


@pytest.mark.parametrize("call, sign, what", SIGNED.values(), ids=SIGNED)
def test_a_sign_word_refuses_a_value_without_its_sign(call, sign, what):
    refused = [Fraction(-1, 2)] + [0] * (sign == "positive")
    for value in refused:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{what} must be {sign}, got {value}"
    call(Fraction(1, 10**30))
    if sign == "nonnegative":
        call(0)


@pytest.mark.parametrize("value", [Fraction(-1, 2), 0, 3])
def test_no_sign_word_takes_any_sign(value):
    assert as_fraction(value, "x") == value
