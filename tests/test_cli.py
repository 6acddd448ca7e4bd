import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import maxplus_tc
from maxplus_tc import cli, conformance, reference
from maxplus_tc.cli import run


def _write(path, text):
    path.write_text(text)
    return str(path)


def _usage_message(capsys) -> str:
    """The message of the usage error a refused command printed, with no stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "usage"
    return error["message"]


@pytest.fixture
def lam_nu_model(tmp_path):
    return _write(
        tmp_path / "m.json",
        json.dumps(
            {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": {"num": 0, "den": 1}}
        ),
    )


class TestCheck:
    def test_conforming_exits_zero(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "arrival_ticks\n0\n10\n20\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conforms"] is True
        assert report["witness"] is None

    def test_violation_exits_one(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["witness"] == {
            "m": 1,
            "n": 2,
            "required": {"num": 10, "den": 1},
            "actual": {"num": 0, "den": 1},
        }

    def test_tspec_check(self, tmp_path, capsys):
        model = _write(
            tmp_path / "ts.json",
            json.dumps({"type": "tspec", "tau": 2, "k_max": 2, "window_mode": "open"}),
        )
        trace = _write(tmp_path / "t.csv", "0\n1\n2\n")
        assert run(["check", "--trace", trace, "--model", model]) == 0

    def test_sigma_rho_check(self, tmp_path, capsys):
        model = _write(
            tmp_path / "sr.json",
            json.dumps({"type": "sigma_rho", "sigma": 100, "rho": 10}),
        )
        trace = _write(tmp_path / "t.csv", "arrival_ticks,length_bits\n0,100\n10,100\n")
        assert run(["check", "--trace", trace, "--model", model]) == 0

    def test_text_format(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n10\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--format", "text"]) == 0
        assert "conforms: yes" in capsys.readouterr().out

    def test_max_tight_lists_a_prefix_and_counts_all(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n10\n20\n30\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tight_pairs"] == [[1, 2], [1, 3]]
        assert (report["tight_count"], report["truncated"]) == (6, True)
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", "all"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["tight_pairs"]) == 6 and report["truncated"] is False

    def test_max_tight_takes_surrounding_spaces(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n10\n20\n30\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", " 2"]) == 0
        assert json.loads(capsys.readouterr().out)["tight_pairs"] == [[1, 2], [1, 3]]

    @pytest.mark.parametrize("value", ["-1", "x", "1.5", "", "١", "+5", "1_0", "٥"])
    def test_bad_max_tight_exits_two(self, tmp_path, lam_nu_model, capsys, value):
        trace = _write(tmp_path / "t.csv", "0\n")
        args = ["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", value]
        assert run(args) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage" and error["message"].startswith("argument --max-tight: ")

    def test_periodic_1e5_packets_in_bounded_memory(self, tmp_path, lam_nu_model, capsys):
        """All N(N-1)/2 pairs are tight (about 5e9); the report lists the
        default 1000 and counts them all.  A list of every pair is
        quadratic: uncapped, 2,000 packets alone peak at about 475 MiB."""
        n = 10**5
        trace = _write(tmp_path / "t.csv", "".join(f"{10 * k}\n" for k in range(n)))
        tracemalloc.start()
        try:
            code = run(["check", "--trace", trace, "--model", lam_nu_model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["tight_count"] == n * (n - 1) // 2
        assert len(report["tight_pairs"]) == 1000 and report["truncated"] is True
        assert peak < 40 * 2**20  # 17.8 MiB measured

    def test_max_tight_all_lists_up_to_its_limit(
        self, tmp_path, lam_nu_model, capsys, monkeypatch
    ):
        args = ["check", "--model", lam_nu_model, "--max-tight", "all", "--trace"]
        args.append(_write(tmp_path / "t.csv", "0\n10\n20\n30\n"))  # 6 tight pairs
        monkeypatch.setattr(cli, "MAX_TIGHT_ALL", 6)
        assert run(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert (len(report["tight_pairs"]), report["tight_count"]) == (6, 6)
        monkeypatch.setattr(cli, "MAX_TIGHT_ALL", 5)
        assert run(args) == 2
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error["kind"] == "usage"
        assert error["message"].startswith("--max-tight all lists at most 5 tight pairs, not 6;")
        args[args.index("all")] = "6"  # a K above the limit reads as 'all'
        assert run(args) == 2
        assert capsys.readouterr().err == err

    def test_max_tight_all_refuses_periodic_1e5_in_bounded_memory(
        self, tmp_path, lam_nu_model, capsys
    ):
        """About 5e9 tight pairs: listing every one is not bounded, so
        ``all`` refuses with a usage error after listing at most
        MAX_TIGHT_ALL of them."""
        n = 10**5
        trace = _write(tmp_path / "t.csv", "".join(f"{10 * k}\n" for k in range(n)))
        tracemalloc.start()
        try:
            code = run(["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", "all"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert code == 2 and out == ""
        assert error["kind"] == "usage" and "--max-tight" in error["message"]
        assert str(n * (n - 1) // 2) in error["message"]
        assert peak < 40 * 2**20  # 22.4 MiB measured

    def test_curve_not_checkable(self, tmp_path, capsys):
        model = _write(
            tmp_path / "c.json",
            json.dumps({"type": "maxplus_curve", "values": [0, 1]}),
        )
        trace = _write(tmp_path / "t.csv", "0\n")
        assert run(["check", "--trace", trace, "--model", model]) == 2
        assert _usage_message(capsys) == (
            "a max-plus curve is not directly checkable; map it to a rate/burst model first"
        )

    def test_max_tight_past_maxsize_lists_every_pair(self, tmp_path, lam_nu_model, capsys):
        # a K above MAX_TIGHT_ALL reads as 'all', which lists all of few pairs
        trace = _write(tmp_path / "t.csv", "0\n10\n20\n30\n")
        outputs = []
        for k in ("99999999999999999999", "all"):
            assert run(["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", k]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["tight_pairs"]) == 6

    def test_missing_file_exits_three(self, tmp_path, lam_nu_model):
        assert run(["check", "--trace", str(tmp_path / "nope.csv"), "--model", lam_nu_model]) == 3

    def test_malformed_csv_exits_three(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "5\n3\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "io"

    def test_header_naming_lengths_with_one_column_rows_exits_three(
        self, tmp_path, lam_nu_model, capsys
    ):
        trace = _write(tmp_path / "t.csv", "arrival_ticks,length_bits\n1\n2\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"kind": "io", "message": "row 1: inconsistent column count"}

    @pytest.mark.parametrize("argv", [
        "check --trace B --model M", "fit --trace B --interval 10",
        "merge --traces T B --out O",
    ], ids=["check", "fit", "merge"])
    def test_trace_not_utf8_exits_three(self, tmp_path, lam_nu_model, capsys, argv):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0\n\xff\n")
        files = {"B": str(bad), "M": lam_nu_model, "T": _write(tmp_path / "t.csv", "0\n"),
                 "O": str(tmp_path / "out.csv")}
        assert run([files.get(word, word) for word in argv.split()]) == 3
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert captured.out == "" and error["kind"] == "io"
        assert error["message"].startswith(f"{bad}: ")

    def test_malformed_model_exits_three(self, tmp_path):
        trace = _write(tmp_path / "t.csv", "0\n")
        model = _write(tmp_path / "m.json", "{not json")
        assert run(["check", "--trace", trace, "--model", model]) == 3

    @pytest.mark.parametrize("content", [
        b'{"type": "lambda_nu", "lambda": {"num": 1' + b"0" * 5000 + b', "den": 1}, "nu": 0}',
        b'{"type": "lambda_nu", "nu": "\xff"}',
    ], ids=["past-digit-limit", "not-utf8"])
    def test_unreadable_model_file_exits_three(self, tmp_path, capsys, content):
        # json.load's plain ValueError is the file's fault, not the command line's
        trace = _write(tmp_path / "t.csv", "0\n")
        model = tmp_path / "m.json"
        model.write_bytes(content)
        assert run(["check", "--trace", trace, "--model", str(model)]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io" and error["message"].startswith(f"{model}: ")

    def test_unknown_flag_exits_two(self, tmp_path, lam_nu_model, capsys):
        assert run(["check", "--trace", "x", "--model", lam_nu_model, "--bogus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"


class TestFit:
    def test_fit_burst(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n20\n")
        assert run(["fit", "--trace", trace, "--rate", "1/10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["nu"] == {"num": 1, "den": 1}
        assert out["binding_pair"] == [1, 2]

    def test_fit_rate(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n10\n20\n")
        assert run(["fit", "--trace", trace, "--burst", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["lambda"] == {"num": 1, "den": 10}

    def test_fit_window(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n1\n2\n")
        assert run(["fit", "--trace", trace, "--interval", "2", "--mode", "open"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["k_max"] == 2

    def test_infeasible_exits_one(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n")
        assert run(["fit", "--trace", trace, "--burst", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "domain"

    def test_requires_one_parameter(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n")
        assert run(["fit", "--trace", trace]) == 2
        assert run(["fit", "--trace", trace, "--rate", "1", "--burst", "0"]) == 2


class TestMap:
    def test_rate_burst_to_tspec(self, tmp_path, capsys):
        model = _write(
            tmp_path / "m.json",
            json.dumps({"type": "lambda_nu", "lambda": {"num": 1, "den": 2}, "nu": 4}),
        )
        assert run(["map", "--model", model, "--variant", "a", "--j", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "type": "tspec",
            "tau": {"num": 2, "den": 1},
            "k_max": 6,
            "window_mode": "closed",
        }

    def test_variant_b(self, tmp_path, capsys):
        model = _write(
            tmp_path / "m.json",
            json.dumps({"type": "lambda_nu", "lambda": {"num": 1, "den": 2}, "nu": 4}),
        )
        assert run(["map", "--model", model, "--variant", "b"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["k_max"], out["window_mode"]) == (5, "open")

    def test_tspec_to_rate_burst(self, tmp_path, capsys):
        model = _write(
            tmp_path / "m.json", json.dumps({"type": "tspec", "tau": 10, "k_max": 5})
        )
        assert run(["map", "--model", model]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == {"num": 1, "den": 2}
        assert out["nu"] == {"num": 4, "den": 1}

    def test_curve_reduction(self, tmp_path, capsys):
        model = _write(
            tmp_path / "c.json",
            json.dumps({"type": "maxplus_curve", "values": [0, 0, 1]}),
        )
        assert run(["map", "--model", model]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == {"num": 2, "den": 1}
        assert out["nu"] == {"num": 1, "den": 1}
        assert out["horizon"] == 2


class TestSuperpose:
    def test_direct_sum(self, tmp_path, capsys):
        a = _write(
            tmp_path / "a.json",
            json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}),
        )
        b = _write(
            tmp_path / "b.json",
            json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}),
        )
        assert run(["superpose", "--models", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == {"num": 2, "den": 1}
        assert out["nu"] == {"num": 1, "den": 1}

    def test_tspec_sum(self, tmp_path, capsys):
        a = _write(tmp_path / "a.json", json.dumps({"type": "tspec", "tau": 2, "k_max": 1}))
        b = _write(tmp_path / "b.json", json.dumps({"type": "tspec", "tau": 4, "k_max": 1}))
        assert run(["superpose", "--models", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] == {"num": 4, "den": 3}
        assert out["k_max"] == 2

    def test_indirect(self, tmp_path, capsys):
        a = _write(
            tmp_path / "a.json",
            json.dumps({"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": 0}),
        )
        b = _write(
            tmp_path / "b.json",
            json.dumps({"type": "lambda_nu", "lambda": {"num": 1, "den": 20}, "nu": 0}),
        )
        assert (
            run(
                [
                    "superpose", "--models", a, b,
                    "--indirect", "--max-lengths", "1", "2", "--min-length", "1",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == {"num": 1, "den": 5}
        assert out["nu"] == {"num": 3, "den": 1}

    def test_mixed_types_rejected(self, tmp_path, capsys):
        a = _write(tmp_path / "a.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
        b = _write(tmp_path / "b.json", json.dumps({"type": "tspec", "tau": 2, "k_max": 1}))
        assert run(["superpose", "--models", a, b]) == 2
        assert _usage_message(capsys) == "all models must be of the same type"

    @pytest.mark.parametrize("model", [
        {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": {"num": 3, "den": 2}},
        {"type": "tspec", "tau": {"num": 7, "den": 3}, "k_max": 4, "window_mode": "open"},
        {"type": "sigma_rho", "sigma": {"num": 1500, "den": 1}, "rho": {"num": 64, "den": 5}},
    ])
    def test_single_model_comes_back_unchanged(self, tmp_path, capsys, model):
        path = _write(tmp_path / "m.json", json.dumps(model))
        assert run(["superpose", "--models", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert maxplus_tc.model_from_json(out) == maxplus_tc.model_from_json(model)

    def test_indirect_needs_lengths(self, tmp_path, capsys):
        a = _write(tmp_path / "a.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
        b = _write(tmp_path / "b.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
        assert run(["superpose", "--models", a, b, "--indirect"]) == 2
        assert _usage_message(capsys) == "--indirect needs --max-lengths and --min-length"

    @pytest.mark.parametrize("models, lengths, message", [
        (1, "1 --min-length 1", "need at least two flows to superpose"),
        (2, "1 --min-length 1", "1 max lengths for 2 flows"),
        (2, "1 1 --min-length 0", "minimum packet length must be positive"),
        (2, "1 0 --min-length 1", "max length of flow 1 must be positive"),
        (2, "1 2 --min-length 3/2", "minimum length 3/2 exceeds max length 1 of flow 0"),
    ])
    def test_indirect_refusal_exits_one(self, lam_nu_model, capsys, models, lengths, message):
        argv = ["superpose", "--models", *[lam_nu_model] * models, "--indirect", "--max-lengths"]
        assert run(argv + lengths.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"kind": "domain", "message": message}}


# a model family a command has no operator for is a usage error naming the gap
@pytest.mark.parametrize("argv, message", [
    ("map --model R", "no mapping defined for model type SigmaRhoModel"),
    ("superpose --models C C", "max-plus curves cannot be superposed directly; reduce them first"),
    ("superpose --models S S --indirect --max-lengths 1 1 --min-length 1",
     "--indirect applies to rate/burst models only"),
    ("superpose --models M M --indirect --max-lengths 1 1",
     "--indirect needs --max-lengths and --min-length"),
])
def test_family_refusal_is_pinned(tmp_path, lam_nu_model, capsys, argv, message):
    files = {
        "M": lam_nu_model,
        "R": _write(tmp_path / "r.json", json.dumps({"type": "sigma_rho", "sigma": 3, "rho": 4})),
        "S": _write(tmp_path / "s.json", json.dumps({"type": "tspec", "tau": 2, "k_max": 2})),
        "C": _write(tmp_path / "c.json", json.dumps({"type": "maxplus_curve", "values": [0, 1]})),
    }
    assert run([files.get(word, word) for word in argv.split()]) == 2
    assert _usage_message(capsys) == message


@pytest.mark.parametrize("argv, message", [
    ("superpose --models M M --max-lengths 1500 64 --min-length 64",
     "--max-lengths, --min-length: valid only with --indirect"),
    ("superpose --models M M --min-length 64", "--min-length: valid only with --indirect"),
    ("fit --trace T --rate 1/10 --mode closed", "--mode: valid only with --interval"),
    ("map --model S --variant a", "--variant: valid only for a lambda_nu model"),
    ("map --model C --j 1 --variant b", "--variant, --j: valid only for a lambda_nu model"),
    ("generate --kind periodic --period 10 --count 2 --rate 1/3 --jitter 2 --model-out O",
     "--rate, --jitter, --model-out: valid only with a --kind that reads them, not periodic"),
    ("generate --kind extremal --rate 1 --count 2 --phase 3 --period 10",
     "--period, --phase: valid only with a --kind that reads them, not extremal"),
    ("generate --kind tspec-bursts --interval 10 --k-max 2 --count 2 --seed 1",
     "--seed: valid only with a --kind that reads them, not tspec-bursts"),
    ("generate --kind jittered --period 10 --count 2 --mode open --burst 0",
     "--burst, --mode: valid only with a --kind that reads them, not jittered"),
    ("generate --kind extremal --rate 1 --count 2 --model-out O",
     "--model-out: valid only with a --kind that reads them, not extremal"),
])
def test_option_that_does_nothing_is_refused(tmp_path, lam_nu_model, capsys, argv, message):
    files = {
        "M": lam_nu_model,
        "T": _write(tmp_path / "t.csv", "0\n10\n"),
        "S": _write(tmp_path / "s.json", json.dumps({"type": "tspec", "tau": 2, "k_max": 2})),
        "C": _write(tmp_path / "c.json", json.dumps({"type": "maxplus_curve", "values": [0, 1]})),
        "O": str(tmp_path / "fitted.json"),
    }
    assert run([files.get(word, word) for word in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"kind": "usage", "message": message}}
    assert not (tmp_path / "fitted.json").exists()


@pytest.mark.parametrize("argv, flag", [
    ("fit --trace T --rate abc", "--rate"),
    ("fit --trace T --rate 1/0", "--rate"),
    ("fit --trace T --burst 1/x", "--burst"),
    ("fit --trace T --interval x", "--interval"),
    ("superpose --models M M --indirect --max-lengths 1 x --min-length 1", "--max-lengths"),
    ("superpose --models M M --indirect --max-lengths 1 1 --min-length 1/0", "--min-length"),
    ("generate --kind extremal --rate abc --count 2", "--rate"),
    ("generate --kind extremal --rate 1 --burst 1/0 --count 2", "--burst"),
    ("generate --kind tspec-bursts --interval x --k-max 2 --count 2", "--interval"),
    ("generate --kind periodic --period x --count 2", "--period"),
    ("fit --trace T --rate 1e5000", "--rate"),
    ("fit --trace T --burst 1e-50000", "--burst"),
    ("fit --trace T --rate 1e-1", "--rate"),
    ("generate --kind extremal --rate 2.5E1 --count 2", "--rate"),
    # int() and Fraction() take "_", "+" and non-ASCII digits; the trace reader does not
    ("fit --trace T --rate 1_0", "--rate"),
    ("fit --trace T --rate +1/3", "--rate"),
    ("fit --trace T --rate \u0661/\u0663", "--rate"),
    ("generate --kind periodic --period \u0661\u0660 --count 2", "--period"),
    ("generate --kind periodic --period 10 --count 2_0", "--count"),
    ("generate --kind tspec-bursts --interval 10 --k-max +2 --count 2", "--k-max"),
    ("map --model M --j +1", "--j"),
    ("suite --trials +1", "--trials"),
    ("suite --max-packets \u0665", "--max-packets"),
    ("suite --seed 1_2", "--seed"),
])
def test_malformed_option_value_exits_two(tmp_path, lam_nu_model, capsys, argv, flag):
    files = {"M": lam_nu_model, "T": _write(tmp_path / "t.csv", "0\n10\n")}
    assert run([files.get(word, word) for word in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "usage" and error["message"].startswith(f"argument {flag}: ")


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), (" -3/4 ", Fraction(-3, 4)),
    ("0.5", Fraction(1, 2)), ("-1.25", Fraction(-5, 4)),
])
def test_rational_option_forms(text, value):
    from maxplus_tc.rational import parse_rational

    assert parse_rational(text) == value


@pytest.mark.parametrize("text, value", [("12", 12), (" -3 ", -3), ("007", 7)])
def test_integer_option_forms(text, value):
    from maxplus_tc.rational import parse_integer

    assert parse_integer(text) == value


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0661", "3\u00a0/4"])
def test_number_outside_ascii_digits_is_refused(text):
    from maxplus_tc.rational import parse_integer, parse_rational

    for parse in (parse_integer, parse_rational):
        with pytest.raises(maxplus_tc.FormatError, match="use ASCII digits, with no '\\+' or '_'"):
            parse(text)


def test_decimal_option_equals_its_fraction(tmp_path, capsys):
    trace = _write(tmp_path / "t.csv", "0\n1\n2\n7\n")
    outputs = []
    for text in ("2.5", "5/2"):
        assert run(["fit", "--trace", trace, "--interval", text]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and '"num": 5' in outputs[0]


@pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", "1e5000"])
def test_rational_exponent_form_is_refused(text):
    from maxplus_tc.rational import parse_rational

    with pytest.raises(maxplus_tc.FormatError, match="not an exponent"):
        parse_rational(text)


class TestMergeGenerate:
    def test_merge_with_provenance(self, tmp_path, capsys):
        t1 = _write(tmp_path / "a.csv", "1\n3\n5\n")
        t2 = _write(tmp_path / "b.csv", "2\n4\n")
        out = tmp_path / "merged.csv"
        prov = tmp_path / "prov.json"
        assert (
            run(
                ["merge", "--traces", t1, t2, "--out", str(out), "--provenance", str(prov)]
            )
            == 0
        )
        assert out.read_text() == "arrival_ticks\n1\n2\n3\n4\n5\n"
        sidecar = json.loads(prov.read_text())
        assert sidecar["packets"][0] == {"flow": 0, "index": 1}
        assert sidecar["packets"][1] == {"flow": 1, "index": 1}

    def test_merge_to_stdout(self, tmp_path, capsys):
        t1 = _write(tmp_path / "a.csv", "0\n")
        assert run(["merge", "--traces", t1, t1]) == 0
        assert capsys.readouterr().out == "arrival_ticks\n0\n0\n"

    def test_merge_with_header_only_flow_keeps_lengths(self, tmp_path, capsys):
        a = _write(tmp_path / "a.csv", "arrival_ticks,length_bits\n1,8\n3,64\n")
        empty = _write(tmp_path / "e.csv", "arrival_ticks,length_bits\n")
        assert run(["merge", "--traces", a, empty]) == 0
        assert capsys.readouterr().out == "arrival_ticks,length_bits\n1,8\n3,64\n"

    def test_generate_periodic_stdout(self, capsys):
        assert run(
            ["generate", "--kind", "periodic", "--period", "10", "--count", "3"]
        ) == 0
        assert capsys.readouterr().out == "arrival_ticks\n0\n10\n20\n"

    def test_generate_extremal(self, capsys):
        assert run(
            ["generate", "--kind", "extremal", "--rate", "1", "--burst", "2", "--count", "5"]
        ) == 0
        assert capsys.readouterr().out == "arrival_ticks\n0\n0\n0\n1\n2\n"

    def test_generate_tspec_bursts(self, capsys):
        assert run(
            [
                "generate", "--kind", "tspec-bursts", "--interval", "10",
                "--k-max", "2", "--mode", "open", "--count", "4",
            ]
        ) == 0
        assert capsys.readouterr().out == "arrival_ticks\n0\n0\n10\n10\n"

    def test_generate_jittered_deterministic(self, tmp_path, capsys):
        args = [
            "generate", "--kind", "jittered", "--period", "10", "--jitter", "5",
            "--seed", "42", "--count", "5",
        ]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_generate_jittered_model_out(self, tmp_path, capsys):
        model_out = tmp_path / "fitted.json"
        assert run(
            [
                "generate", "--kind", "jittered", "--period", "10", "--jitter", "3",
                "--seed", "7", "--count", "20", "--out", str(tmp_path / "t.csv"),
                "--model-out", str(model_out),
            ]
        ) == 0
        fitted = json.loads(model_out.read_text())
        assert fitted["type"] == "lambda_nu"

    @pytest.mark.parametrize("argv", [
        "generate --kind jittered --period 10 --jitter 3 --seed 7 --count 20 --out t.csv "
        "--model-out",
        "merge --traces a.csv a.csv --out t.csv --provenance",
    ], ids=["model-out", "provenance"])
    def test_dash_is_stdout_for_every_output_path(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "a.csv", "1\n3\n")
        assert run([*argv.split(), "f.json"]) == 0
        assert run([*argv.split(), "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "f.json").read_text()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("argv, options", [
        ("generate --kind jittered --period 10 --jitter 3 --seed 7 --count 20 --out f.out "
         "--model-out", "--out and --model-out"),
        ("merge --traces a.csv a.csv --out f.out --provenance", "--out and --provenance"),
    ], ids=["model-out", "provenance"])
    @pytest.mark.parametrize("second", ["f.out", "./f.out"], ids=["same", "dot-slash"])
    def test_two_outputs_naming_one_file_exit_two(self, tmp_path, capsys, monkeypatch, argv,
                                                  options, second):
        # the second document would replace the first.  No a.csv exists, so
        # a merge that read its inputs first would exit 3
        monkeypatch.chdir(tmp_path)
        assert run([*argv.split(), second]) == 2
        assert _usage_message(capsys) == f"{options} name one file, {second!r}"
        assert not (tmp_path / "f.out").exists()

    @pytest.mark.parametrize("argv", [
        "generate --kind jittered --period 10 --jitter 3 --seed 7 --count 20 --model-out",
        "merge --traces a.csv a.csv --provenance",
    ], ids=["model-out", "provenance"])
    def test_both_outputs_to_stdout_write_one_after_the_other(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "a.csv", "1\n3\n")
        assert run([*argv.split(), "f.json", "--out", "f.csv"]) == 0
        assert run([*argv.split(), "-", "--out", "-"]) == 0
        assert capsys.readouterr().out == (
            (tmp_path / "f.csv").read_text() + (tmp_path / "f.json").read_text()
        )

    def test_generate_without_kind_exits_two(self, capsys):
        assert run(["generate", "--count", "3"]) == 2
        assert _usage_message(capsys) == "the following arguments are required: --kind"

    def test_generate_config_is_no_option(self, capsys):
        assert run(["generate", "--kind", "periodic", "--period", "10", "--config", "x"]) == 2
        assert _usage_message(capsys) == "unrecognized arguments: --config x"

    @pytest.mark.parametrize(
        "kind, given, missing",
        [
            ("periodic", ["--count", "3"], "--period"),
            ("extremal", ["--burst", "2", "--count", "3"], "--rate"),
            ("tspec-bursts", ["--k-max", "2", "--count", "3"], "--interval"),
            ("tspec-bursts", ["--interval", "10", "--count", "3"], "--k-max"),
            ("jittered", ["--jitter", "3", "--count", "3"], "--period"),
            ("periodic", ["--period", "10"], "--count"),
        ],
    )
    def test_generate_missing_parameter_exits_two(self, capsys, kind, given, missing):
        assert run(["generate", "--kind", kind, *given]) == 2
        assert _usage_message(capsys) == f"--kind {kind} needs {missing}"

    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_generate_bursts_at_a_non_integer_interval(self, tmp_path, capsys, mode):
        args = ["--interval", "5/2", "--k-max", "2", "--count", "6", "--mode", mode]
        assert run(["generate", "--kind", "tspec-bursts", *args]) == 0
        out = capsys.readouterr().out
        assert out == "arrival_ticks\n0\n0\n3\n3\n6\n6\n"
        trace = _write(tmp_path / "t.csv", out)
        tspec = {"type": "tspec", "tau": {"num": 5, "den": 2}, "k_max": 2, "window_mode": mode}
        model = _write(tmp_path / "ts.json", json.dumps(tspec))
        assert run(["check", "--trace", trace, "--model", model]) == 0


class TestGenerateOutput:
    """What each generator kind writes for its flags, pinned."""

    @pytest.mark.parametrize(
        "argv, output",
        [
            ("--kind periodic --period 10 --phase 3 --count 3", "3\n13\n23\n"),
            ("--kind extremal --rate 1/2 --burst 2 --count 5", "0\n0\n0\n2\n4\n"),
            ("--kind extremal --rate 1 --count 3", "0\n1\n2\n"),
            ("--kind tspec-bursts --interval 5 --k-max 2 --mode open --count 4", "0\n0\n5\n5\n"),
            ("--kind tspec-bursts --interval 7 --k-max 3 --count 4", "0\n0\n0\n8\n"),
            ("--kind jittered --period 10 --jitter 3 --seed 7 --count 5", "0\n13\n22\n32\n42\n"),
            ("--kind periodic --period 10 --count 0", ""),
        ],
        ids=["periodic", "extremal", "extremal-no-burst", "tspec-open", "tspec-closed", "jittered",
             "periodic-none"],
    )
    def test_flag_output(self, capsys, argv, output):
        assert run(["generate", *argv.split()]) == 0
        assert capsys.readouterr().out == "arrival_ticks\n" + output


_BIG = 10**20
_ALL_REFUSED = "--max-tight all lists at most 100000 tight pairs, not 124750;"


@pytest.mark.parametrize("argv, code, kind, shown", [
    ("check --trace spaced.csv --model big_nu.json", 0, None, '"tight_count": 0'),
    ("check --trace spaced.csv --model big_k.json", 0, None, '"tight_count": 0'),
    ("map --model big_nu.json", 0, None, f'"k_max": {_BIG + 2}'),
    ("map --model big_k.json", 0, None, f'"num": {_BIG - 1}'),
    ("map --model lam_nu.json --j BIG", 0, None, f'"k_max": {_BIG + 1}'),
    ("fit --trace spaced.csv --burst BIG", 1, "domain", "any positive rate conforms"),
    ("generate --kind extremal --rate 1 --burst BIG --count 3", 0, None, "ticks\n0\n0\n0\n"),
    ("generate --kind tspec-bursts --interval 10 --k-max BIG --count 3", 0, None,
     "ticks\n0\n0\n0\n"),
    ("generate --kind periodic --period BIG --count 3", 0, None, f"\n{_BIG}\n{2 * _BIG}\n"),
    ("generate --kind periodic --period 10 --phase BIG --count 3", 0, None, f"\n{_BIG + 20}\n"),
    ("generate --kind jittered --period BIG --jitter 3 --count 3", 0, None,
     f"\n{_BIG + 1}\n{2 * _BIG + 2}\n"),
    ("check --trace periodic.csv --model lam_nu.json --max-tight 1000000", 2, "usage",
     _ALL_REFUSED),
    ("check --trace periodic.csv --model lam_nu.json --max-tight BIG", 2, "usage", _ALL_REFUSED),
], ids=["check-nu", "check-k-max", "map-nu", "map-k-max", "map-j", "fit-burst", "generate-burst",
        "generate-k-max", "generate-period", "generate-phase", "generate-jittered-period",
        "max-tight-1e6", "max-tight-1e20"])
def test_counts_of_1e20_end_with_their_exit_code(tmp_path, capsys, monkeypatch, argv, code, kind,
                                                  shown):
    """Counts past 2**63 and past any trace, in model files and flags: each
    command ends in bounded time with its documented exit code.  The
    periodic trace at its own rate has 124,750 tight pairs, more than
    ``--max-tight all`` lists.  A large ``--count`` is not among these: it
    asks for that many packets."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "spaced.csv", "0\n10\n20\n")
    _write(tmp_path / "periodic.csv", "".join(f"{10 * k}\n" for k in range(500)))
    lam_nu = {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": 0}
    _write(tmp_path / "lam_nu.json", json.dumps(lam_nu))
    _write(tmp_path / "big_nu.json", json.dumps({**lam_nu, "nu": _BIG}))
    _write(tmp_path / "big_k.json", json.dumps({"type": "tspec", "tau": 10, "k_max": _BIG}))
    start = time.perf_counter()
    assert run(argv.replace("BIG", str(_BIG)).split()) == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (json.loads(err)["error"]["kind"] if err else None) == kind
    assert shown in out + err
    assert elapsed < 2  # 0.04 s at most measured


@pytest.mark.parametrize("model, key", [
    ({"type": "lambda_nu", "lambda": 1, "nu": 0, "burst": 3}, "burst"),
    ({"type": "tspec", "tau": 5, "k_max": 2, "window-mode": "open"}, "window-mode"),
    ({"type": "sigma_rho", "sigma": 1, "rho": 1, "rate": 2}, "rate"),
    ({"type": "maxplus_curve", "values": [0, 1], "horizon": 1}, "horizon"),
], ids=["lambda_nu", "tspec", "sigma_rho", "maxplus_curve"])
def test_model_keys_the_family_does_not_read_exit_3(tmp_path, capsys, model, key):
    # a misspelled key would otherwise leave its field at the default:
    # "window-mode" read as a closed window, and (1, 3) a violation
    trace = _write(tmp_path / "t.csv", "0\n0\n5\n")
    path = _write(tmp_path / "m.json", json.dumps(model))
    assert run(["check", "--trace", trace, "--model", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "io", "message": f"model JSON key {key!r} is not read by a {model['type']} model",
    }


def test_rational_keys_not_read_exit_3(tmp_path, capsys):
    # a key misplaced inside a rational would otherwise be dropped: nu read
    # as 0, and (1, 2) a violation
    trace = _write(tmp_path / "t.csv", "0\n0\n5\n")
    model = {"type": "lambda_nu", "lambda": {"num": 1, "den": 10, "nu": 3}, "nu": 0}
    path = _write(tmp_path / "m.json", json.dumps(model))
    assert run(["check", "--trace", trace, "--model", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "io", "message": "rational JSON key 'nu' is not read",
    }


@pytest.mark.parametrize("argv", [
    "map --model curve.json", "map --model lam_nu.json", "map --model tspec.json",
    "superpose --models tspec.json tspec.json",
    "generate --kind jittered --period 10 --jitter 2 --count 5 --out t.csv --model-out -",
], ids=["map-curve", "map-lambda_nu", "map-tspec", "superpose", "generate-model-out"])
def test_model_documents_written_are_read_back(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "curve.json", json.dumps({"type": "maxplus_curve", "values": [0, 0, 10, 20]}))
    _write(tmp_path / "lam_nu.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
    _write(tmp_path / "tspec.json", json.dumps(
        {"type": "tspec", "tau": 5, "k_max": 2, "window_mode": "open"}
    ))
    trace = _write(tmp_path / "spaced.csv", "0\n10\n20\n")
    assert run(argv.split()) == 0
    written = _write(tmp_path / "written.json", capsys.readouterr().out)
    assert run(["check", "--trace", trace, "--model", written]) in (0, 1)
    assert capsys.readouterr().err == ""


class TestTextFormat:
    """``--format text`` of check is a summary of the report; that of fit,
    map and superpose is the compact JSON."""

    def test_check(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n10\n20\n30\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--format", "text"]) == 0
        assert capsys.readouterr().out == "conforms: yes\ntight pairs: 6\nchecked pairs: 6\n"
        args = ["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", "4"]
        assert run([*args, "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "conforms: yes\ntight pairs: 6 (first 4 listed)\nchecked pairs: 6\n"
        )

    def test_check_violation(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model, "--format", "text"]) == 1
        assert capsys.readouterr().out == (
            "conforms: no\nviolation at (1, 2): required 10, actual 0\n"
            "tight pairs: 1\nchecked pairs: 3\n"
        )

    def test_fit(self, tmp_path, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n20\n")
        assert run(["fit", "--trace", trace, "--rate", "1/10", "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            '{"model": {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, '
            '"nu": {"num": 1, "den": 1}}, "binding_pair": [1, 2]}\n'
        )

    def test_map_curve(self, tmp_path, capsys):
        model = _write(
            tmp_path / "c.json", json.dumps({"type": "maxplus_curve", "values": [0, 0, 10, 20]})
        )
        assert run(["map", "--model", model, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and "\n" not in out[:-1]
        assert json.loads(out)["horizon"] == 3

    def test_superpose(self, tmp_path, capsys):
        paths = [
            _write(tmp_path / f"{i}.json", json.dumps({"type": "sigma_rho", "sigma": i, "rho": 2}))
            for i in (1, 2)
        ]
        assert run(["superpose", "--models", *paths, "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            '{"type": "sigma_rho", "sigma": {"num": 3, "den": 1}, "rho": {"num": 4, "den": 1}}\n'
        )


class TestTable1Cli:
    def test_json(self, capsys):
        assert run(["table1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert rows[0]["indirect_curve"] is None
        assert rows[3]["indirect_curve"]["offset"] == 3

    def test_text(self, capsys):
        assert run(["table1", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 5
        assert "not available" in out

    # the sha256 of each format's stdout: a change of the rows or of either
    # writer shows here even when the library and the CLI drift together
    @pytest.mark.parametrize("argv, digest", [
        ([], "1820165fbf90506cf10d520547e5907e87c105a291b983ef410ba9e9d3ff4631"),
        (["--format", "text"], "cbe60b0eab0e689689ea407641db529d5268494c8e22898a72c239dad6128e6a"),
    ], ids=["json", "text"])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        assert run(["table1", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestSuiteCli:
    def test_small_suite_passes(self, capsys):
        assert run(["suite", "--trials", "2", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures_total"] == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXPLUS_TC_SEED", "99")
        assert run(["suite", "--trials", "1", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5

    @pytest.mark.parametrize("argv", [["--seed", "7"], []], ids=["seed-7", "default-seed"])
    def test_environment_changes_no_output(self, capsys, monkeypatch, argv):
        # the seed comes from --seed or SuiteConfig alone
        monkeypatch.delenv("MAXPLUS_TC_SEED", raising=False)
        assert run(["suite", *argv, "--trials", "2"]) == 0
        out = capsys.readouterr().out
        monkeypatch.setenv("MAXPLUS_TC_SEED", "99")
        assert run(["suite", *argv, "--trials", "2"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("failing", [False, True], ids=["passing", "raising"])
    def test_workers_leave_one_document(self, failing):
        # the suite forks 3 workers after a line is left in stdout's buffer:
        # a worker that flushed it, or went on past the suite, would print
        # it or a document twice
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
            "from maxplus_tc import cli, suite\n"
            "def fail(rng, cfg):\n"
            "    raise ValueError('property broken on purpose')\n"
            f"if {failing}:\n"
            "    suite.PROPERTIES = tuple((name, fail) for name in suite.PROPERTY_NAMES)\n"
            "sys.stdout.write('before\\n')\n"
            "sys.argv[1:] = ['suite', '--seed', '5', '--trials', '3', '--max-packets', '50']\n"
            "cli.main()\n"
        )
        src = str(Path(maxplus_tc.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        before, _, document = proc.stdout.partition("\n")
        assert before == "before"
        if failing:
            assert (proc.returncode, document) == (2, "")
            assert json.loads(proc.stderr) == {
                "error": {"kind": "usage", "message": "property broken on purpose"}
            }
        else:
            assert proc.returncode == 0
            summary = maxplus_tc.run_property_suite(
                maxplus_tc.SuiteConfig(seed=5, trials=3, max_packets=50))
            assert document == _indented(summary.to_json_dict())

    def test_zero_trials_warns(self, capsys):
        assert run(["suite", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert "vacuous" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_zero_trials_warns_once(self, capsys, fmt):
        # the warning goes to stderr beside the wall time in JSON mode; the
        # text view holds both
        assert run(["suite", "--trials", "0", "--seed", "4", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        summary = maxplus_tc.run_property_suite(maxplus_tc.SuiteConfig(seed=4, trials=0))
        warning = "warning: trials=0: every property passes vacuously\n"
        if fmt == "json":
            assert out == _indented(summary.to_json_dict())
            assert re.fullmatch(r"suite wall time: \d+\.\d\d s\n" + warning, err)
        else:
            def untimed(text):
                return re.sub(r"\d+\.\d+ (ms|s wall time)", r"- \1", text)

            assert untimed(out) == untimed(summary.render_text())
            assert out.count(warning) == 1 and err == ""

    def test_repeat_runs_byte_identical(self, capsys):
        assert run(["suite", "--trials", "2", "--seed", "8"]) == 0
        first = capsys.readouterr().out
        assert run(["suite", "--trials", "2", "--seed", "8"]) == 0
        assert capsys.readouterr().out == first

    def test_text_format(self, capsys):
        assert run(["suite", "--trials", "1", "--format", "text"]) == 0
        assert "wall time" in capsys.readouterr().out


def test_top_level_help_gives_the_exit_codes_not_the_module_docstring(capsys):
    assert run(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # argparse rewraps the description
    assert ("Exit codes: 0 success or conforms, 1 violation, counterexample or domain "
            "failure, 2 usage error, 3 I/O or parse error") in out
    assert cli.__doc__.split()[0] == "Command-line"
    assert "Command-line" not in out and "thin adapter" not in out


def test_cli_import_does_not_load_numpy():
    src = str(Path(maxplus_tc.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", "import maxplus_tc.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )


# the maxplus_tc submodules each subcommand loads, besides cli and errors: neither
# check nor fit loads suite, reference, table1, generators, algebra or aggregation,
# and generate loads conformance only for the jittered kind, which fits its trace
SUBCOMMAND_MODULES = {
    "check": {"_record", "conformance", "models", "rational", "trace"},
    "fit": {"_record", "conformance", "models", "rational", "trace"},
    "map": {"_record", "algebra", "models", "rational"},
    "superpose": {"_record", "algebra", "models", "rational"},
    "merge": {"_record", "aggregation", "trace"},
    "generate": {"_record", "generators", "models", "rational", "trace"},
    "table1": {"_record", "algebra", "models", "rational", "table1"},
    "suite": {"_record", "aggregation", "algebra", "conformance", "generators", "models",
              "rational", "reference", "suite", "trace"},
}
# stdlib modules no subcommand's start-up may load: dataclasses compiles each
# record's methods with exec and imports inspect, ast and dis; typing and
# pathlib cost import time for what collections.abc, io and open() give;
# multiprocessing and concurrent.futures take ~14 ms to import, where the
# suite splits its properties over bare os.fork
STARTUP_SKIPS = {"dataclasses", "inspect", "typing", "pathlib", "multiprocessing",
                 "concurrent.futures"}


@pytest.mark.parametrize("sub", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, lam_nu_model, sub):
    trace = _write(tmp_path / "t.csv", "0\n10\n")
    out = str(tmp_path / "out.csv")
    argv = [sub] + {
        "check": ["--trace", trace, "--model", lam_nu_model],
        "fit": ["--trace", trace, "--burst", "0"],
        "map": ["--model", lam_nu_model],
        "superpose": ["--models", lam_nu_model, lam_nu_model],
        "merge": ["--traces", trace, trace, "--out", out, "--provenance", out + ".json"],
        "generate": ["--kind", "periodic", "--period", "3", "--count", "2", "--out", out],
        "table1": [],
        "suite": ["--trials", "1", "--max-packets", "10"],
    }[sub]
    code = (
        "import sys\n"
        "from maxplus_tc import cli\n"
        f"assert cli.run({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('maxplus_tc')))\n"
        f"print(*sorted({sorted(STARTUP_SKIPS)!r} & sys.modules.keys()))\n"
    )
    src = str(Path(maxplus_tc.__file__).resolve().parents[1])
    # -S: a .pth file in site-packages that imports one of STARTUP_SKIPS
    # would hide a regression
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    modules, skipped = proc.stdout.splitlines()[-2:]
    assert set(modules.split()) == {"maxplus_tc", "maxplus_tc.cli", "maxplus_tc.errors"} | {
        f"maxplus_tc.{name}" for name in SUBCOMMAND_MODULES[sub]
    }
    assert skipped == ""


def test_every_checked_family_is_superposed():
    # `check` and `superpose` dispatch through these tables: a new model
    # family goes into both or neither
    from maxplus_tc.algebra import SUPERPOSE
    from maxplus_tc.conformance import CHECKERS, FIRST_VIOLATION

    assert CHECKERS.keys() == SUPERPOSE.keys()
    # the suite reads a verdict through FIRST_VIOLATION, a failure through CHECKERS
    assert FIRST_VIOLATION.keys() == CHECKERS.keys()


def _indented(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class TestJsonBytes:
    """Output is exactly ``json.dumps(..., indent=2)`` of the library's object.

    The tests above parse the JSON back, so they would not see a change of
    layout; these pin every byte.
    """

    @staticmethod
    def _model(tmp_path, name, obj):
        return _write(tmp_path / name, json.dumps(obj))

    def test_check_all_tight(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "".join(f"{10 * k}\n" for k in range(12)))
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 0
        report = maxplus_tc.check_lambda_nu(
            maxplus_tc.read_trace_csv(trace),
            maxplus_tc.LambdaNuModel(lam=Fraction(1, 10), nu=Fraction(0)),
        )
        assert len(report.tight_pairs) == 66
        assert capsys.readouterr().out == _indented(maxplus_tc.report_to_json(report))

    def test_check_violation_prints_witness(self, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n15\n")
        assert run(["check", "--trace", trace, "--model", lam_nu_model]) == 1
        report = maxplus_tc.check_lambda_nu(
            maxplus_tc.read_trace_csv(trace),
            maxplus_tc.LambdaNuModel(lam=Fraction(1, 10), nu=Fraction(0)),
        )
        assert report.witness is not None
        assert capsys.readouterr().out == _indented(maxplus_tc.report_to_json(report))

    def test_check_sigma_rho(self, tmp_path, capsys):
        obj = {"type": "sigma_rho", "sigma": 100, "rho": {"num": 21, "den": 2}}
        model = self._model(tmp_path, "sr.json", obj)
        trace = _write(
            tmp_path / "t.csv", "arrival_ticks,length_bits\n0,100\n10,50\n20,100\n30,100\n"
        )
        assert run(["check", "--trace", trace, "--model", model]) == 0
        report = maxplus_tc.check_sigma_rho(
            maxplus_tc.read_trace_csv(trace), maxplus_tc.model_from_json(obj)
        )
        assert report.tight_pairs
        assert capsys.readouterr().out == _indented(maxplus_tc.report_to_json(report))

    @pytest.mark.parametrize(
        "flag, value",
        [("--rate", "1/10"), ("--burst", "1"), ("--interval", "25")],
    )
    def test_fit(self, tmp_path, capsys, flag, value):
        trace = _write(tmp_path / "t.csv", "0\n0\n10\n20\n35\n41\n")
        assert run(["fit", "--trace", trace, flag, value]) == 0
        t = maxplus_tc.read_trace_csv(trace)
        if flag == "--rate":
            result = maxplus_tc.fit_lambda_nu(t, lam=Fraction(value))
        elif flag == "--burst":
            result = maxplus_tc.fit_lambda_nu(t, nu=Fraction(value))
        else:
            result = maxplus_tc.fit_tspec(t, Fraction(value), maxplus_tc.WindowMode.CLOSED)
        assert capsys.readouterr().out == _indented(maxplus_tc.fit_result_to_json(result))

    def test_map(self, tmp_path, capsys):
        obj = {"type": "lambda_nu", "lambda": {"num": 1, "den": 2}, "nu": 4}
        assert run(["map", "--model", self._model(tmp_path, "m.json", obj), "--j", "2"]) == 0
        mapped = maxplus_tc.map_lambda_nu_to_tspec(
            maxplus_tc.model_from_json(obj), maxplus_tc.MappingVariant("a"), 2
        )
        assert capsys.readouterr().out == _indented(maxplus_tc.model_to_json(mapped))
        obj = {"type": "tspec", "tau": {"num": 7, "den": 2}, "k_max": 3, "window_mode": "open"}
        assert run(["map", "--model", self._model(tmp_path, "ts.json", obj)]) == 0
        mapped = maxplus_tc.map_tspec_to_lambda_nu(maxplus_tc.model_from_json(obj))
        assert capsys.readouterr().out == _indented(maxplus_tc.model_to_json(mapped))
        obj = {"type": "maxplus_curve", "values": [0, 0, 10, {"num": 41, "den": 2}]}
        assert run(["map", "--model", self._model(tmp_path, "c.json", obj)]) == 0
        curve = maxplus_tc.model_from_json(obj)
        expected = {**maxplus_tc.model_to_json(maxplus_tc.curve_to_lambda_nu(curve)),
                    "horizon": curve.horizon}
        assert capsys.readouterr().out == _indented(expected)

    def test_superpose(self, tmp_path, capsys):
        families = [
            (maxplus_tc.superpose_tspec, [
                {"type": "tspec", "tau": 2, "k_max": 1},
                {"type": "tspec", "tau": {"num": 7, "den": 2}, "k_max": 3, "window_mode": "open"},
            ]),
            (maxplus_tc.superpose_lambda_nu, [
                {"type": "lambda_nu", "lambda": {"num": 1, "den": 10}, "nu": 2},
                {"type": "lambda_nu", "lambda": {"num": 2, "den": 7}, "nu": {"num": 1, "den": 2}},
            ]),
            (maxplus_tc.superpose_sigma_rho, [
                {"type": "sigma_rho", "sigma": 100, "rho": {"num": 21, "den": 2}},
                {"type": "sigma_rho", "sigma": {"num": 2**64 + 1, "den": 3}, "rho": 7},
            ]),
        ]
        for superpose, objs in families:
            paths = [self._model(tmp_path, f"{i}.json", o) for i, o in enumerate(objs)]
            assert run(["superpose", "--models", *paths]) == 0
            result = superpose([maxplus_tc.model_from_json(o) for o in objs])
            assert capsys.readouterr().out == _indented(maxplus_tc.model_to_json(result))

    def test_table1(self, capsys):
        assert run(["table1"]) == 0
        expected = maxplus_tc.table1_to_json(maxplus_tc.reproduce_table1())
        assert capsys.readouterr().out == _indented(expected)

    def test_suite(self, capsys):
        for seed in (7, 701):
            assert run(["suite", "--seed", str(seed), "--trials", "3"]) == 0
            summary = maxplus_tc.run_property_suite(maxplus_tc.SuiteConfig(seed=seed, trials=3))
            assert capsys.readouterr().out == _indented(summary.to_json_dict())

    def test_merge_provenance_file(self, tmp_path):
        cases = [
            ["1\n3\n3\n5\n", "2\n3\n"],
            ["1\n3\n3\n5\n", "", "2\n3\n", "0\n3\n"],  # ties across three flows, one empty
            [
                "arrival_ticks,length_bits\n1,100\n3,20\n",
                "arrival_ticks,length_bits\n3,5\n3,7\n",
                "arrival_ticks,length_bits\n0,9\n3,1\n",
            ],
            ["", ""],
        ]
        for case, flows in enumerate(cases):
            paths = [_write(tmp_path / f"{case}-{i}.csv", text) for i, text in enumerate(flows)]
            prov = tmp_path / f"{case}.json"
            out = str(tmp_path / f"{case}.csv")
            args = ["merge", "--traces", *paths, "--out", out, "--provenance", str(prov)]
            assert run(args) == 0
            _, origins = maxplus_tc.merge_traces_with_provenance(
                [maxplus_tc.read_trace_csv(path) for path in paths]
            )
            expected = {"packets": [{"flow": o.flow, "index": o.index} for o in origins]}
            assert prov.read_text() == _indented(expected)
        assert prov.read_text() == '{\n  "packets": []\n}\n'

    def test_generate_model_out_file(self, tmp_path):
        model_out = tmp_path / "fitted.json"
        assert run(
            [
                "generate", "--kind", "jittered", "--period", "10", "--jitter", "3",
                "--seed", "7", "--count", "20", "--out", str(tmp_path / "t.csv"),
                "--model-out", str(model_out),
            ]
        ) == 0
        _, fitted = maxplus_tc.gen_jittered(10, 3, 7, 20)
        assert model_out.read_text() == _indented(maxplus_tc.model_to_json(fitted))


@st.composite
def checked_cases(draw):
    """A trace, a model of a checked family and a ``--max-tight`` value.

    The ticks sit on the model's own step, some drifting by one tick per
    step, so that tight pairs are common; a shift moves them and a scale
    multiplies the lengths and the bit-domain model past 2**63, neither
    changing which pairs are tight."""
    step = draw(st.integers(1, 5))
    shift = draw(st.sampled_from([0, 2**63 - 3, 2**64]))
    scale = draw(st.sampled_from([1, 2**63 + 1]))
    ticks = sorted(shift + step * k + draw(st.sampled_from([0, 0, 1])) * k
                   for k in draw(st.lists(st.integers(0, 8), max_size=9)))
    lengths = [scale * draw(st.integers(1, 3)) for _ in ticks]
    family = draw(st.sampled_from(["lambda_nu", "tspec", "sigma_rho"]))
    if family == "lambda_nu":
        model = maxplus_tc.LambdaNuModel(lam=Fraction(draw(st.integers(1, 2)), step),
                                         nu=draw(st.integers(0, 3)))
    elif family == "tspec":
        model = maxplus_tc.TSpecModel(
            tau=Fraction(step * draw(st.integers(1, 3)), draw(st.integers(1, 2))),
            k_max=draw(st.integers(1, 4)),
            window_mode=draw(st.sampled_from(maxplus_tc.WindowMode)),
        )
    else:
        model = maxplus_tc.SigmaRhoModel(sigma=scale * draw(st.integers(0, 6)),
                                         rho=scale * Fraction(draw(st.integers(1, 3)), step))
    max_tight = draw(st.sampled_from(["0", "1", "3", "all"]))
    return maxplus_tc.Trace(ticks, lengths=lengths), model, max_tight


class TestCheckReportJson:
    """``check``'s report against ``json.dumps(report_to_json(report), indent=2)``
    for every checked family and ``--max-tight`` count, past 2**63."""

    @given(checked_cases())
    @example((  # an empty trace: no pairs at all
        maxplus_tc.Trace([], lengths=[]), maxplus_tc.SigmaRhoModel(sigma=0, rho=1), "all"
    ))
    @example((  # past 2**63, a rational witness and a truncated list of 2 tight pairs
        maxplus_tc.Trace([2**64, 2**64 + 1, 2**64 + 7, 2**64 + 8]),
        maxplus_tc.LambdaNuModel(lam=Fraction(2, 7), nu=0), "1",
    ))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_stdlib(self, tmp_path, capsys, case):
        trace, model, max_tight = case
        model_json = json.dumps(maxplus_tc.model_to_json(model))
        argv = ["check", "--trace", _write(tmp_path / "t.csv", maxplus_tc.write_trace_csv(trace)),
                "--model", _write(tmp_path / "m.json", model_json), "--max-tight", max_tight]
        report = conformance.CHECKERS[type(model)](
            trace, model, max_tight=None if max_tight == "all" else int(max_tight)
        )
        capsys.readouterr()
        assert run(argv) == (0 if report.conforms else 1)
        assert capsys.readouterr().out == _indented(maxplus_tc.report_to_json(report))


@st.composite
def merge_flows(draw):
    """One to six flows, some empty, with ties within and across flows and
    ticks past 2**63; lengths on every flow or on none."""
    ticks = st.one_of(st.integers(0, 6), st.integers(2**63 - 2, 2**63 + 2))
    with_lengths = draw(st.booleans())
    flows = []
    for _ in range(draw(st.integers(1, 6))):
        arrivals = sorted(draw(st.lists(ticks, max_size=6)))
        lengths = [draw(st.integers(1, 2**64)) for _ in arrivals] if with_lengths else None
        flows.append(maxplus_tc.Trace(arrivals, lengths=lengths))
    return flows


class TestMergeOutputs:
    """``merge``'s aggregate CSV and ``--provenance`` file, byte for byte,
    against the reference merge and ``json.dumps``."""

    @given(merge_flows())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_match_the_reference_merge(self, tmp_path, flows):
        paths = [
            _write(tmp_path / f"{i}.csv", maxplus_tc.write_trace_csv(t)) for i, t in enumerate(flows)
        ]
        out, prov = tmp_path / "agg.csv", tmp_path / "prov.json"
        assert run(["merge", "--traces", *paths, "--out", str(out), "--provenance", str(prov)]) == 0
        merged, origins = reference.merge_with_provenance_by_tuples(flows)
        packets = [{"flow": o.flow, "index": o.index} for o in origins]
        assert prov.read_text() == json.dumps({"packets": packets}, indent=2) + "\n"
        assert out.read_text() == maxplus_tc.write_trace_csv(merged)

    # the sha256 of the aggregate CSV followed by the provenance file, over
    # 12 flows: flows 10 and 11 give two-digit flow numbers, flow 5 is empty,
    # every flow ties with others at 0, 2**63 and 2**63 + 2, and lengths
    # reach past 2**64
    @pytest.mark.parametrize("with_lengths, digest", [
        (False, "bcf81e7d2821092233efb72be6bc098b2ffc4ee455e697ba1847cf8de3dc0267"),
        (True, "6a3654db98be4d2785b95b42c68706cd331e0fab530c7ce4ccc3e852f14097c3"),
    ], ids=["ticks", "lengths"])
    def test_bytes_are_pinned(self, tmp_path, with_lengths, digest):
        big = 2**63
        paths = []
        for i in range(12):
            ticks = [] if i == 5 else sorted(
                [j * (i % 3) for j in range(i % 4 + 1)] + [big + i % 3, big + 2]
            )
            rows = [
                f"{a},{1 + (i * 7919 + n * 104729) ** 4 % 2**65}" if with_lengths else f"{a}"
                for n, a in enumerate(ticks, start=1)
            ]
            header = "arrival_ticks,length_bits" if with_lengths else "arrival_ticks"
            paths.append(_write(tmp_path / f"{i}.csv", "\n".join([header, *rows]) + "\n"))
        out, prov = tmp_path / "agg.csv", tmp_path / "prov.json"
        assert run(["merge", "--traces", *paths, "--out", str(out), "--provenance", str(prov)]) == 0
        assert hashlib.sha256(out.read_bytes() + prov.read_bytes()).hexdigest() == digest


# the packets each piece of merge's and generate's output holds, and counts
# about it: an empty output, one packet, and one piece short, whole and past
PIECE = maxplus_tc.trace._PIECE
PIECE_COUNTS = [0, 1, PIECE - 1, PIECE, PIECE + 1]


class TestPieceBoundaries:
    """``merge`` and ``generate`` write their outputs in pieces of PIECE
    packets; at each count about a piece the bytes are those of the
    reference merge, rows written one by one, and ``json.dumps``."""

    @pytest.mark.parametrize("with_lengths", [False, True], ids=["ticks", "lengths"])
    @pytest.mark.parametrize("packets", PIECE_COUNTS)
    def test_merge(self, tmp_path, packets, with_lengths):
        # three flows of packets n % 3 at tick n // 2: ties within and across flows
        flows = [maxplus_tc.Trace(
            [n // 2 for n in range(f, packets, 3)],
            lengths=[64 + n for n in range(f, packets, 3)] if with_lengths else None,
        ) for f in range(3)]
        paths = [_write(tmp_path / f"{f}.csv", maxplus_tc.write_trace_csv(t)) for f, t in enumerate(flows)]
        out, prov = tmp_path / "agg.csv", tmp_path / "prov.json"
        assert run(["merge", "--traces", *paths, "--out", str(out), "--provenance", str(prov)]) == 0
        merged, origins = reference.merge_with_provenance_by_tuples(flows)
        rows = zip(merged.arrivals, merged.lengths) if with_lengths else zip(merged.arrivals)
        header = "arrival_ticks,length_bits\n" if with_lengths else "arrival_ticks\n"
        assert out.read_text() == header + "".join(",".join(map(str, row)) + "\n" for row in rows)
        packets_json = [{"flow": o.flow, "index": o.index} for o in origins]
        assert prov.read_text() == json.dumps({"packets": packets_json}, indent=2) + "\n"
        assert len(origins) == packets

    @pytest.mark.parametrize("packets", PIECE_COUNTS)
    def test_generate(self, tmp_path, packets):
        out = tmp_path / "gen.csv"
        args = ["--period", "3", "--phase", "2", "--count", str(packets), "--out", str(out)]
        assert run(["generate", "--kind", "periodic", *args]) == 0
        assert out.read_text() == "arrival_ticks\n" + "".join(f"{2 + 3 * n}\n" for n in range(packets))


class TestMergeCost:
    """``merge --provenance`` over 5 two-column flows, as read from files."""

    @staticmethod
    def _args(tmp_path, rows):
        paths = [
            _write(tmp_path / f"{rows}_{f}.csv", "arrival_ticks,length_bits\n" + "".join(
                f"{10 * i + f},{64 + 7919 * i % 1400}\n" for i in range(rows)
            ))
            for f in range(5)
        ]
        out, prov = str(tmp_path / f"{rows}.csv"), str(tmp_path / f"{rows}.json")
        return ["merge", "--traces", *paths, "--out", out, "--provenance", prov]

    def test_peak_memory_at_2e4_rows_per_flow(self, tmp_path):
        # each output is written in pieces and never held whole: 14.2-14.4 MiB
        # measured, 16.6-16.8 MiB when each was one text
        args = self._args(tmp_path, 2 * 10**4)
        tracemalloc.start()
        try:
            assert run(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_no_python_code_per_packet(self, tmp_path):
        # the collector is off, as in the command line, so that no gc
        # callback runs at a random point
        def lines(rows):
            args, seen = self._args(tmp_path, rows), []

            def record(frame, kind, arg):
                seen.append(kind)
                return record  # trace the lines of each frame

            gc.disable()
            sys.settrace(record)
            try:
                assert run(args) == 0
            finally:
                sys.settrace(None)
                gc.enable()
            return seen.count("line")

        # 5,000 packets are one piece of each output and 50,000 are seven: the
        # two writers run at most 10 lines a piece between them (9 measured)
        assert 5 * 10**3 <= PIECE and 6 * PIECE < 5 * 10**4 <= 7 * PIECE
        assert 0 <= lines(10**4) - lines(10**3) <= 10 * 6

    def test_no_piece_exceeds_its_packets(self, tmp_path, monkeypatch):
        # 20,000 packets: two whole pieces and a part of each output
        written = []

        def write_out(path, pieces):
            pieces = list(pieces)
            written.append(pieces)
            write(path, pieces)

        write = cli._write_out
        monkeypatch.setattr(cli, "_write_out", write_out)
        assert run(self._args(tmp_path, 4000)) == 0
        csv, prov = written
        assert len(csv) == 4 and len(prov) >= 4
        for pieces, per_packet in ((csv, "\n"), (prov, '"flow"')):
            text = "".join(pieces)
            longest = max(map(len, text.split(per_packet)))
            assert text.count(per_packet) >= 2 * PIECE
            # each piece holds at most PIECE packets, and the text of no more
            assert max(piece.count(per_packet) for piece in pieces) <= PIECE
            assert max(map(len, pieces)) <= PIECE * (longest + len(per_packet))


class TestEntryPoint:
    """``main()`` is the process entry: it turns the cyclic collector off and
    ends the process without the interpreter's teardown, after flushing the
    streams and running the ``atexit`` handlers.  What it writes must be what
    ``run()`` writes."""

    # an atexit handler registered before main() records the collector's
    # state in the file $GC_STATE, so the file exists only if main() ran it
    LAUNCH = (
        "import atexit, gc, os\n"
        "atexit.register(lambda: open(os.environ['GC_STATE'], 'w').write(str(gc.isenabled())))\n"
        "from maxplus_tc.cli import main\n"
        "main()\n"
    )

    def _main(self, args, tmp_path, stdout=subprocess.PIPE, launch=LAUNCH, **env):
        """Exit code, stdout and stderr of ``main()`` in a child, whose
        ``PYTHONUNBUFFERED`` is only what ``env`` sets."""
        src = str(Path(maxplus_tc.__file__).resolve().parents[1])
        state = tmp_path / "gc_state"
        base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", launch, *args],
            env={**base, "PYTHONPATH": src, "GC_STATE": str(state), **env},
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert state.read_text() == "False"
        return proc.returncode, proc.stdout, proc.stderr

    def _run(self, args, capsys):
        enabled = gc.isenabled()
        code = run(args)
        assert gc.isenabled() == enabled
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("sub", [
        "check", "fit", "map", "superpose", "merge", "generate", "table1", "suite",
    ])
    def test_each_subcommand_writes_what_run_writes(self, sub, tmp_path, lam_nu_model, capsys):
        trace = _write(tmp_path / "t.csv", "arrival_ticks\n0\n1\n2\n")
        args = {
            "check": ["check", "--trace", trace, "--model", lam_nu_model],
            "fit": ["fit", "--trace", trace, "--rate", "1/10"],
            "map": ["map", "--model", lam_nu_model, "--variant", "b"],
            "superpose": ["superpose", "--models", lam_nu_model, lam_nu_model],
            "merge": ["merge", "--traces", trace, trace],
            "generate": ["generate", "--kind", "periodic", "--period", "10", "--count", "3"],
            "table1": ["table1", "--format", "text"],
            "suite": ["suite", "--trials", "1", "--seed", "3", "--max-packets", "20"],
        }[sub]

        def timeless(result):  # the suite's wall time goes to stderr
            code, out, err = result
            return code, out, re.sub(r"wall time: \d+\.\d\d s", "wall time: _ s", err)

        result = self._main(args, tmp_path)
        assert timeless(result) == timeless(self._run(args, capsys))
        assert result[0] == (1 if sub == "check" else 0) and result[1]

    def test_merge_with_provenance(self, tmp_path, capsys):
        flows = [_write(tmp_path / "a.csv", "1\n3\n3\n"), _write(tmp_path / "b.csv", "0\n3\n")]
        args = ["merge", "--traces", *flows, "--provenance"]
        result = self._main(args + [str(tmp_path / "main.json")], tmp_path)
        assert result == self._run(args + [str(tmp_path / "run.json")], capsys)
        assert result == (0, "arrival_ticks\n0\n1\n3\n3\n3\n", "")
        assert (tmp_path / "main.json").read_bytes() == (tmp_path / "run.json").read_bytes()

    def test_malformed_csv_exits_three(self, tmp_path, capsys):
        flows = [_write(tmp_path / "a.csv", "5\n3\n"), _write(tmp_path / "b.csv", "0\n")]
        args = ["merge", "--traces", *flows]
        code, out, err = self._main(args, tmp_path)
        assert (code, out, err) == self._run(args, capsys)
        assert code == 3 and json.loads(err)["error"]["kind"] == "io"

    def test_module_run_exits_with_the_verdict(self, tmp_path, lam_nu_model):
        """``python -m maxplus_tc.cli`` runs ``main()``: a violating check
        exits 1 with its report, and no arguments exit 2 with a usage error."""
        src = str(Path(maxplus_tc.__file__).resolve().parents[1])
        trace = _write(tmp_path / "t.csv", "arrival_ticks\n0\n1\n2\n")

        def module_run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "maxplus_tc.cli", *args],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            )
            return proc.returncode, proc.stdout, proc.stderr

        code, out, err = module_run("check", "--trace", trace, "--model", lam_nu_model)
        assert (code, err) == (1, "")
        assert json.loads(out)["conforms"] is False and json.loads(out)["witness"] is not None
        code, out, err = module_run()
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "usage"

    def test_module_help_through_a_pipe_is_flushed(self, capsys, monkeypatch):
        """Buffered stdout to a pipe is written out before the process ends."""
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps the help to
        src = str(Path(maxplus_tc.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "maxplus_tc.cli", "check", "--help"],
            env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        result = proc.returncode, proc.stdout, proc.stderr
        assert result == self._run(["check", "--help"], capsys)
        assert result[0] == 0 and result[1].startswith("usage: maxplus-tc check")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("count", ["3", "20000"], ids=["held", "past-the-buffer"])
    def test_failed_stdout_write_exits_three(self, tmp_path, unbuffered, count):
        """A write to a full device fails in ``run()``, or in the flush after
        it while the output is held in the buffer; either way the process
        exits 3 with one io error object."""
        args = ["generate", "--kind", "periodic", "--period", "10", "--count", count]
        env = {"PYTHONUNBUFFERED": unbuffered} if unbuffered else {}
        with open("/dev/full", "w") as full:
            code, _, err = self._main(args, tmp_path, stdout=full, **env)
        assert (code, json.loads(err)) == (
            3, {"error": {"kind": "io", "message": "[Errno 28] No space left on device"}}
        )

    def test_exception_escaping_run_keeps_its_traceback(self, tmp_path):
        launch = self.LAUNCH.replace(
            "main()", "def fail(argv):\n    raise RuntimeError('boom')\n"
            "import maxplus_tc.cli as cli\ncli.run = fail\nmain()"
        )
        code, out, err = self._main(["table1"], tmp_path, launch=launch)
        assert (code, out) == (1, "")
        assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")
