"""The refusals of the model wire format and of the model records, by
message, the round trip of every family, what building a record costs, and
the gap a TSpec window holds."""

import json
import operator
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus_tc import (
    FormatError,
    LambdaNuModel,
    MaxPlusCurve,
    SigmaRhoModel,
    Trace,
    TSpecModel,
    WindowMode,
    fit_lambda_nu,
    fit_tspec,
    model_from_json,
    model_to_json,
    superpose_indirect,
)
from maxplus_tc.cli import run
from maxplus_tc.conformance import fit_sigma_rho

LAMBDA_NU = {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": 0}
TSPEC = {"type": "tspec", "tau": 10, "k_max": 2, "window_mode": "closed"}

REFUSALS = [
    ([LAMBDA_NU], "model JSON must be an object, got list"),
    ({"lambda": 1, "nu": 0}, "unknown model type None"),
    ({**LAMBDA_NU, "type": "token_bucket"}, "unknown model type 'token_bucket'"),
    ({"type": "lambda_nu", "lambda": 1}, "model JSON missing key 'nu'"),
    ({"type": "tspec", "tau": 10}, "model JSON missing key 'k_max'"),
    ({**TSPEC, "k_max": True}, "k_max must be an integer >= 1, got True"),
    ({**TSPEC, "k_max": 2.0}, "k_max must be an integer >= 1, got 2.0"),
    ({**TSPEC, "window_mode": "half"}, "'half' is not a valid WindowMode"),
    ({"type": "maxplus_curve", "values": {"0": 0}}, "curve values must be a list"),
    ({**LAMBDA_NU, "lambda": -1}, "rate must be positive, got -1"),
    # `map` writes a reduced curve's horizon, which is at least 1
    ({**LAMBDA_NU, "horizon": "x"}, "horizon must be an integer >= 1, got 'x'"),
    ({**LAMBDA_NU, "horizon": -5}, "horizon must be an integer >= 1, got -5"),
    ({**LAMBDA_NU, "horizon": 0}, "horizon must be an integer >= 1, got 0"),
    ({**LAMBDA_NU, "horizon": True}, "horizon must be an integer >= 1, got True"),
    ({**LAMBDA_NU, "horizon": None}, "horizon must be an integer >= 1, got None"),
    ({**LAMBDA_NU, "horizon": {}}, "horizon must be an integer >= 1, got {}"),
    ({**LAMBDA_NU, "horizon": 2.5}, "horizon must be an integer >= 1, got 2.5"),
    # a file, a flag and a library call share the constructor's k_max rule, and
    # a family is refused for its first bad or missing key in written order
    ({**TSPEC, "k_max": 0}, "k_max must be an integer >= 1, got 0"),
    ({"type": "tspec"}, "model JSON missing key 'tau'"),
    ({**TSPEC, "tau": -1, "k_max": "x"}, "interval must be positive, got -1"),
]


@pytest.mark.parametrize("obj, message", REFUSALS)
def test_refusal_names_its_cause(obj, message):
    with pytest.raises(FormatError) as info:
        model_from_json(obj)
    assert str(info.value) == message


def test_check_reports_a_refused_model_as_an_io_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("0\n10\n")
    model = tmp_path / "m.json"
    model.write_text(json.dumps({**TSPEC, "k_max": True}))
    assert run(["check", "--trace", str(trace), "--model", str(model)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"kind": "io", "message": "k_max must be an integer >= 1, got True"}
    }


# each family's tag and the keys it writes after `type`, in written order
WRITTEN = {
    LambdaNuModel: ("lambda_nu", "lambda", "nu"),
    TSpecModel: ("tspec", "tau", "k_max", "window_mode"),
    SigmaRhoModel: ("sigma_rho", "sigma", "rho"),
    MaxPlusCurve: ("maxplus_curve", "values"),
}
POSITIVE = st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70))
NONNEGATIVE = st.builds(Fraction, st.integers(0, 2**70), st.integers(1, 2**70))
MODELS = st.one_of(
    st.builds(LambdaNuModel, POSITIVE, NONNEGATIVE),
    st.builds(TSpecModel, POSITIVE, st.integers(1, 2**70), st.sampled_from(WindowMode)),
    st.builds(SigmaRhoModel, NONNEGATIVE, POSITIVE),
    st.lists(NONNEGATIVE, min_size=1, max_size=20).map(
        lambda steps: MaxPlusCurve(accumulate(steps, initial=Fraction(0)))),
)


@given(MODELS)
def test_every_family_round_trips_with_its_keys_in_written_order(model):
    obj = model_to_json(model)
    tag, *keys = WRITTEN[type(model)]
    assert list(obj) == ["type", *keys] and obj["type"] == tag
    assert model_from_json(json.loads(json.dumps(obj))) == model


def test_a_tspec_without_window_mode_is_closed():
    closed = model_from_json({"type": "tspec", "tau": 10, "k_max": 2})
    assert closed == TSpecModel(10, 2, WindowMode.CLOSED)


ONE = LambdaNuModel(1, 0)

# a float's binary value is rarely the rational meant (0.1 is
# 3602879701896397/36028797018963968), so a parameter refuses it
FLOAT_REFUSALS = {
    "lambda_nu-rate": (lambda: LambdaNuModel(0.1, 0), "rate 0.1 is not a Fraction or an int"),
    "lambda_nu-burst": (lambda: LambdaNuModel(1, 0.5),
                        "burst allowance 0.5 is not a Fraction or an int"),
    "tspec-interval": (lambda: TSpecModel(2.5, 1), "interval 2.5 is not a Fraction or an int"),
    "sigma_rho-burst": (lambda: SigmaRhoModel(1.0, 1), "burst 1.0 is not a Fraction or an int"),
    "sigma_rho-rate": (lambda: SigmaRhoModel(0, 0.25), "rate 0.25 is not a Fraction or an int"),
    "curve-value": (lambda: MaxPlusCurve((0, 0.5)), "curve value 0.5 is not a Fraction or an int"),
    "indirect-max_length": (lambda: superpose_indirect([ONE, ONE], [1.5, 2], 1),
                            "max length 1.5 is not a Fraction or an int"),
    "indirect-min_length": (lambda: superpose_indirect([ONE, ONE], [2, 2], 0.5),
                            "minimum length 0.5 is not a Fraction or an int"),
    "fit_lambda_nu-lam": (lambda: fit_lambda_nu(Trace((0, 5)), lam=0.1),
                          "rate 0.1 is not a Fraction or an int"),
    "fit_lambda_nu-nu": (lambda: fit_lambda_nu(Trace((0, 5)), nu=1.5),
                         "burst allowance 1.5 is not a Fraction or an int"),
    "fit_tspec-tau": (lambda: fit_tspec(Trace((0, 5)), 2.0), "interval 2.0 is not a Fraction or an int"),
    "fit_sigma_rho-rho": (lambda: fit_sigma_rho(Trace(()), rho=0.5),
                          "rate 0.5 is not a Fraction or an int"),
}


@pytest.mark.parametrize("build, message", FLOAT_REFUSALS.values(), ids=FLOAT_REFUSALS)
def test_float_parameter_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value) == message


# a bool is an int to Python, but True is no rate a user means
BOOL_REFUSALS = {
    "lambda_nu": (lambda: LambdaNuModel(True, False), "rate True is a bool, not a Fraction or an int"),
    "lambda_nu-burst": (lambda: LambdaNuModel(1, False),
                        "burst allowance False is a bool, not a Fraction or an int"),
    "sigma_rho-rate": (lambda: SigmaRhoModel(0, True), "rate True is a bool, not a Fraction or an int"),
    "curve-value": (lambda: MaxPlusCurve((0, True)),
                    "curve value True is a bool, not a Fraction or an int"),
}


@pytest.mark.parametrize("build, message", BOOL_REFUSALS.values(), ids=BOOL_REFUSALS)
def test_bool_parameter_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError and str(exc.value) == message


def test_building_records_from_fractions_builds_no_fraction(monkeypatch):
    # a record keeps the Fractions it is given: neither converting nor
    # checking a sign calls Fraction.__new__
    half, three, seven_halves = Fraction(1, 2), Fraction(3), Fraction(7, 2)
    zero = Fraction(0)
    new, calls = Fraction.__new__, []

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    Fraction(1, 3)
    assert calls == [(1, 3)]  # the spy sees each Fraction built
    calls.clear()
    records = [
        LambdaNuModel(half, three),
        TSpecModel(seven_halves, 2),
        SigmaRhoModel(three, half),
        MaxPlusCurve((zero, half, half, seven_halves)),
    ]
    assert calls == []
    assert records[0].lam is half and records[3].values[3] is seven_halves


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_max_gap_in_window_follows_its_definition(mode):
    # every tau = p/q with p, q <= 12: the largest g with q*g <= p, or q*g < p when open
    within = operator.le if mode is WindowMode.CLOSED else operator.lt
    for p, q in product(range(1, 13), repeat=2):
        largest = max(g for g in range(p + 1) if within(q * g, p))
        assert TSpecModel(Fraction(p, q), 1, mode).max_gap_in_window() == largest, (p, q)
