import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxplus_tc
from maxplus_tc.cli import run


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

    def test_generate_grid_error_exits_one(self, tmp_path, capsys):
        assert run(
            [
                "generate", "--kind", "tspec-bursts", "--interval", "5/2",
                "--k-max", "1", "--count", "2",
            ]
        ) == 1


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
