"""The refusals of the model wire format, by message."""

import json

import pytest

from maxplus_tc import FormatError, model_from_json
from maxplus_tc.cli import run

LAMBDA_NU = {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": 0}
TSPEC = {"type": "tspec", "tau": 10, "k_max": 2, "window_mode": "closed"}

REFUSALS = [
    ([LAMBDA_NU], "model JSON must be an object, got list"),
    ({"lambda": 1, "nu": 0}, "unknown model type None"),
    ({**LAMBDA_NU, "type": "token_bucket"}, "unknown model type 'token_bucket'"),
    ({"type": "lambda_nu", "lambda": 1}, "model JSON missing key 'nu'"),
    ({"type": "tspec", "tau": 10}, "model JSON missing key 'k_max'"),
    ({**TSPEC, "k_max": True}, "k_max must be an integer, got True"),
    ({**TSPEC, "k_max": 2.0}, "k_max must be an integer, got 2.0"),
    ({**TSPEC, "window_mode": "half"}, "'half' is not a valid WindowMode"),
    ({"type": "maxplus_curve", "values": {"0": 0}}, "curve values must be a list"),
    ({**LAMBDA_NU, "lambda": -1}, "rate must be positive, got -1"),
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
        "error": {"kind": "io", "message": "k_max must be an integer, got True"}
    }
