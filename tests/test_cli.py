import gc
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxplus_tc
from maxplus_tc import PacketOrigin, cli
from maxplus_tc.cli import _json_text, run


def _write(path, text):
    path.write_text(text)
    return str(path)


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

    @pytest.mark.parametrize("value", ["-1", "x", "1.5", "", "١"])
    def test_bad_max_tight_exits_two(self, tmp_path, lam_nu_model, capsys, value):
        trace = _write(tmp_path / "t.csv", "0\n")
        args = ["check", "--trace", trace, "--model", lam_nu_model, "--max-tight", value]
        assert run(args) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "usage" and "--max-tight" in error["message"]

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

    def test_malformed_model_exits_three(self, tmp_path):
        trace = _write(tmp_path / "t.csv", "0\n")
        model = _write(tmp_path / "m.json", "{not json")
        assert run(["check", "--trace", trace, "--model", model]) == 3

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

    def test_indirect_needs_lengths(self, tmp_path):
        a = _write(tmp_path / "a.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
        b = _write(tmp_path / "b.json", json.dumps({"type": "lambda_nu", "lambda": 1, "nu": 0}))
        assert run(["superpose", "--models", a, b, "--indirect"]) == 2


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

    def test_generate_from_config_with_flag_override(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "cfg.json",
            json.dumps({"kind": "periodic", "period": 10, "count": 2}),
        )
        assert run(["generate", "--config", cfg, "--count", "3"]) == 0
        assert capsys.readouterr().out == "arrival_ticks\n0\n10\n20\n"

    def test_generate_without_kind_exits_two(self, capsys):
        assert run(["generate", "--count", "3"]) == 2

    @pytest.mark.parametrize(
        "kind, given, missing",
        [
            ("periodic", [], "--period"),
            ("extremal", ["--burst", "2"], "--rate"),
            ("tspec-bursts", ["--k-max", "2"], "--interval"),
            ("tspec-bursts", ["--interval", "10"], "--k-max"),
            ("jittered", ["--jitter", "3"], "--period"),
        ],
    )
    def test_generate_missing_parameter_exits_two(self, capsys, kind, given, missing):
        assert run(["generate", "--kind", kind, *given, "--count", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["kind"] == "usage"
        assert error["message"].startswith(f"--kind {kind} needs {missing} ")

    def test_generate_grid_error_exits_one(self, tmp_path, capsys):
        assert run(
            [
                "generate", "--kind", "tspec-bursts", "--interval", "5/2",
                "--k-max", "1", "--count", "2",
            ]
        ) == 1


class TestGenerateConfigTypes:
    """Config values take the types the flags take: a JSON integer (not a
    bool) where the flag is an int, a string or integer for a rational, and
    a string for a name."""

    @pytest.mark.parametrize(
        "config, output",
        [
            ({"kind": "periodic", "period": 10, "phase": 3, "count": 3}, "3\n13\n23\n"),
            ({"kind": "extremal", "rate": "1/2", "burst": 2, "count": 5}, "0\n0\n0\n2\n4\n"),
            ({"kind": "extremal", "rate": 1, "count": 3}, "0\n1\n2\n"),
            (
                {"kind": "tspec-bursts", "interval": "5", "k_max": 2, "mode": "open", "count": 4},
                "0\n0\n5\n5\n",
            ),
            ({"kind": "tspec-bursts", "interval": 7, "k_max": 3, "count": 4}, "0\n0\n0\n8\n"),
            (
                {"kind": "jittered", "period": 10, "jitter": 3, "seed": 7, "count": 5},
                "0\n13\n22\n32\n42\n",
            ),
        ],
    )
    def test_valid_config_output(self, tmp_path, capsys, config, output):
        cfg = _write(tmp_path / "cfg.json", json.dumps(config))
        assert run(["generate", "--config", cfg]) == 0
        assert capsys.readouterr().out == "arrival_ticks\n" + output

    @pytest.mark.parametrize(
        "key, value",
        [
            ("period", 10.7),
            ("phase", True),
            ("count", 3.0),
            ("count", "3"),
            ("k_max", False),
            ("jitter", 2.9),
            ("seed", 7.5),
            ("seed", None),
            ("rate", 0.1),
            ("burst", True),
            ("interval", [5]),
            ("kind", 5),
            ("mode", {"open": True}),
        ],
    )
    def test_rejected_type_exits_three(self, tmp_path, capsys, key, value):
        config = {"kind": "periodic", "period": 10, "count": 3, key: value}
        cfg = _write(tmp_path / "cfg.json", json.dumps(config))
        assert run(["generate", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["kind"] == "io"
        assert repr(key) in error["message"]


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


class TestSuiteCli:
    def test_small_suite_passes(self, capsys):
        assert run(["suite", "--trials", "2", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures_total"] == 0

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXPLUS_TC_SEED", "99")
        assert run(["suite", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 99

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXPLUS_TC_SEED", "99")
        assert run(["suite", "--trials", "1", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXPLUS_TC_SEED", "abc")
        assert run(["suite", "--trials", "1"]) == 2

    def test_zero_trials_warns(self, capsys):
        assert run(["suite", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert "vacuous" in captured.err

    def test_repeat_runs_byte_identical(self, capsys):
        assert run(["suite", "--trials", "2", "--seed", "8"]) == 0
        first = capsys.readouterr().out
        assert run(["suite", "--trials", "2", "--seed", "8"]) == 0
        assert capsys.readouterr().out == first

    def test_text_format(self, capsys):
        assert run(["suite", "--trials", "1", "--format", "text"]) == 0
        assert "wall time" in capsys.readouterr().out


def test_cli_import_does_not_load_numpy():
    src = str(Path(maxplus_tc.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", "import maxplus_tc.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )


# the maxplus_tc submodules each subcommand loads, besides cli and errors: neither
# check nor fit loads suite, reference, table1, generators, algebra or aggregation
SUBCOMMAND_MODULES = {
    "check": {"_record", "conformance", "models", "rational", "trace"},
    "fit": {"_record", "conformance", "models", "rational", "trace"},
    "map": {"_record", "algebra", "models", "rational"},
    "merge": {"_record", "aggregation", "rational", "trace"},
    "generate": {"_record", "conformance", "generators", "models", "rational", "trace"},
}
# stdlib modules no subcommand's start-up may load: dataclasses compiles each
# record's methods with exec and imports inspect, ast and dis; typing and
# pathlib cost import time for what collections.abc, io and open() give
STARTUP_SKIPS = {"dataclasses", "inspect", "typing", "pathlib"}


@pytest.mark.parametrize("sub", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, lam_nu_model, sub):
    trace = _write(tmp_path / "t.csv", "0\n10\n")
    out = str(tmp_path / "out.csv")
    argv = [sub] + {
        "check": ["--trace", trace, "--model", lam_nu_model],
        "fit": ["--trace", trace, "--burst", "0"],
        "map": ["--model", lam_nu_model],
        "merge": ["--traces", trace, trace, "--out", out, "--provenance", out + ".json"],
        "generate": ["--kind", "periodic", "--period", "3", "--count", "2", "--out", out],
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

    def test_superpose(self, tmp_path, capsys):
        objs = [
            {"type": "tspec", "tau": 2, "k_max": 1},
            {"type": "tspec", "tau": {"num": 7, "den": 2}, "k_max": 3, "window_mode": "open"},
        ]
        paths = [self._model(tmp_path, f"{i}.json", o) for i, o in enumerate(objs)]
        assert run(["superpose", "--models", *paths]) == 0
        result = maxplus_tc.superpose_tspec([maxplus_tc.model_from_json(o) for o in objs])
        assert capsys.readouterr().out == _indented(maxplus_tc.model_to_json(result))

    def test_table1(self, capsys):
        assert run(["table1"]) == 0
        expected = maxplus_tc.table1_to_json(maxplus_tc.reproduce_table1())
        assert capsys.readouterr().out == _indented(expected)

    def test_suite(self, capsys):
        assert run(["suite", "--seed", "7", "--trials", "3"]) == 0
        summary = maxplus_tc.run_property_suite(maxplus_tc.SuiteConfig(seed=7, trials=3))
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


ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) + 1),
)
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["%", "%d", "%%s", '"', "\\", "\x00", "\x1f\n\t", "\x7f", "é", " ", "😀"]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, texts)


def _spoil(draw, rows, cells):
    """Now and then put one non-int scalar (or a bool) into otherwise int rows."""
    if cells and draw(st.integers(min_value=0, max_value=3)) == 0:
        row, key = draw(st.sampled_from(cells))
        rows[row][key] = draw(st.one_of(st.booleans(), scalars))


@st.composite
def int_rows(draw):
    """Lists of flat int rows, the writer's template case, or near misses."""
    width = draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.lists(st.lists(ints, min_size=width, max_size=width), max_size=5))
    _spoil(draw, rows, [(r, k) for r in range(len(rows)) for k in range(width)])
    if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
        rows.append(draw(st.lists(ints, max_size=4)))  # ragged
    return [tuple(row) if draw(st.booleans()) else row for row in rows]


@st.composite
def dict_rows(draw):
    """Lists of flat int dicts with one key order, or near misses."""
    keys = draw(st.lists(texts, unique=True, max_size=3))
    rows = [{key: draw(ints) for key in keys} for _ in range(draw(st.integers(0, 5)))]
    _spoil(draw, rows, [(r, k) for r in range(len(rows)) for k in keys])
    if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
        order = draw(st.permutations(keys))
        rows[-1] = {key: rows[-1][key] for key in order}
    return rows


json_values = st.recursive(
    st.one_of(scalars, int_rows(), dict_rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        int_rows(),
        dict_rows(),
    ),
    max_leaves=30,
)


class TestJsonText:
    """The CLI's writer against ``json.dumps(v, indent=2)``."""

    @pytest.mark.parametrize(
        "value",
        [
            [True, 1],
            [1, False],
            [[True, 1], [1, 2]],
            [[1, False], [1, 2]],
            [[1, 2], [3, True]],
            [[2**63, -(2**63) - 1], [2**64 + 1, -(2**100)]],
            [[1, 2], [3]],
            [[1, 2], [3, 4, 5]],
            [[1, 2], (3, 4)],
            ((1, 2), [3, 4]),
            [],
            {},
            [[]],
            [[], []],
            [{}],
            [{}, {}],
            [(), ()],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
            [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
            [{"a": 1}, {"a": "1"}],
            [{"a": 1}, {"a": None}],
            [{"a": 1}, {"a": True}],
            [{"a": 1}, {"a": 1, "b": 2}],
            [{"a": 1}, [1]],
            [{'"\\\x00\x1f%d%%é 😀': 5, "%s": -1}, {'"\\\x00\x1f%d%%é 😀': 6, "%s": 0}],
            {'k"\\\x00é': 'v"\\\x7f 😀', "": ""},
            {"a": [{"b": [[1, 2], [3, 4]], "c": {"d": [[5, 6]]}}], "e": None},
            [[[[1, 2], [3, 4]], [[5, 6]]], [[[7, 8]]]],
        ],
    )
    def test_adversarial(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @given(json_values)
    @settings(max_examples=400, deadline=None)
    def test_matches_stdlib(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @given(
        st.lists(st.builds(PacketOrigin, ints, ints), max_size=6),
        st.one_of(st.none(), st.booleans(), st.integers(min_value=0, max_value=5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_records_are_objects(self, origins, odd):
        """A list of NamedTuples is written as the list of their dicts, by
        the template or, when a field is no int, value by value."""
        if origins and odd is not None:
            origins[0] = PacketOrigin(odd, origins[0].index)
        as_dicts = [o._asdict() for o in origins]
        assert _json_text(origins) == json.dumps(as_dicts, indent=2)
        sidecar = {"packets": as_dicts}
        assert _json_text({"packets": tuple(origins)}) == json.dumps(sidecar, indent=2)


class TestEntryPoint:
    """``main()`` is the process entry and turns the cyclic collector off;
    what it writes must be what ``run()`` writes."""

    # records the collector's state as main() exits, in the file $GC_STATE
    LAUNCH = (
        "import gc, os\n"
        "from maxplus_tc.cli import main\n"
        "try:\n"
        "    main()\n"
        "finally:\n"
        "    open(os.environ['GC_STATE'], 'w').write(str(gc.isenabled()))\n"
    )

    def _main(self, args, tmp_path):
        src = str(Path(maxplus_tc.__file__).resolve().parents[1])
        state = tmp_path / "gc_state"
        proc = subprocess.run(
            [sys.executable, "-c", self.LAUNCH, *args],
            env={**os.environ, "PYTHONPATH": src, "GC_STATE": str(state)},
            capture_output=True,
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
