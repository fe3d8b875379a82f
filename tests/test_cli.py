import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rootiso
from rootiso.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIsolate:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "isolate", "--coeffs", "-1 0 4")
        assert code == 0
        doc = json.loads(out)
        spans = {
            (iv["lo"]["num"], iv["hi"]["num"], iv["inverted"]) for iv in doc["intervals"]
        }
        assert spans == {("-1", "0", False), ("0", "1", False)}
        assert doc["exact_roots"] == []
        assert set(doc["trace"]) == {"node_count", "depth", "width_per_depth"}

    def test_unit_only_trace(self, capsys):
        code, out, _ = run_cli(capsys, "isolate", "--coeffs", "-1 0 4", "--unit-only")
        assert code == 0
        assert json.loads(out)["trace"]["node_count"] == 3

    def test_exact_root_payload(self, capsys):
        code, out, _ = run_cli(capsys, "isolate", "--coeffs", "-4 0 1")
        doc = json.loads(out)
        roots = {(r["num"], r["exp"], r["inverted"]) for r in doc["exact_roots"]}
        assert roots == {("-2", 0, False), ("2", 0, False)}

    def test_zero_polynomial_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "isolate", "--coeffs", "0 0 0")
        assert code == 2
        assert "zero polynomial" in err

    def test_file_input_reports_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "polys.txt"
        path.write_text("1 2 3\n\n4 x 6\n")
        code, _, err = run_cli(capsys, "isolate", "--input", str(path))
        assert code == 1
        assert "line 3" in err

    def test_file_input_multiple(self, capsys, tmp_path):
        path = tmp_path / "polys.txt"
        path.write_text("-1 0 4\n0 1\n")
        code, out, _ = run_cli(capsys, "isolate", "--input", str(path))
        assert code == 0
        assert len(json.loads(out)["results"]) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "isolate", "--coeffs", "0 1", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["trace"]["node_count"] == 2


class TestAnalyze:
    def test_keys_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--coeffs", "-1 0 4", "--max-grid", "65536"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "degree",
            "cond",
            "separation_bound",
            "separation",
            "rho_bound",
            "rho_count",
        }
        assert doc["cond"]["lower"] <= doc["cond"]["upper"]
        assert doc["cond"]["achieved"] is True
        assert doc["separation_bound"] < 1.0
        assert doc["separation"] == pytest.approx(1.0, abs=1e-9)
        assert doc["rho_count"] == {"min": 2, "max": 2}

    def test_degree_one_has_no_disk_analysis(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1 2")
        doc = json.loads(out)
        assert code == 0 and doc["rho_bound"] is None and doc["rho_count"] is None


class TestGen:
    def test_deterministic(self, capsys):
        args = ("gen", "--model", "uniform", "--degree", "8", "--bitsize", "16",
                "--seed", "7", "--count", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert len(first.splitlines()) == 3
        assert all(len(line.split()) == 9 for line in first.splitlines())

    def test_round_trip_into_isolate(self, capsys, tmp_path):
        rng = random.Random(51)
        for trial in range(100):
            degree = rng.randint(1, 10)
            bitsize = rng.randint(1, 20)
            seed = rng.randint(0, 10**6)
            path = tmp_path / f"gen{trial}.txt"
            code, out, _ = run_cli(
                capsys, "gen", "--degree", str(degree), "--bitsize", str(bitsize),
                "--seed", str(seed), "--count", "1", "--out", str(path),
            )
            assert code == 0
            code, out, err = run_cli(capsys, "isolate", "--input", str(path))
            assert code == 0, err

    def test_model_flag_validation(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--model", "signs", "--degree", "3")
        assert code == 1 and "--signs" in err
        code, _, err = run_cli(
            capsys, "gen", "--model", "signs", "--degree", "3", "--signs", "+-+"
        )
        assert code == 1  # wrong length

    def test_signs_model_generation(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--model", "signs", "--degree", "3", "--signs", "+-+-",
            "--count", "5",
        )
        assert code == 0
        for line in out.splitlines():
            c = [int(t) for t in line.split()]
            assert c[0] > 0 and c[1] < 0 and c[2] > 0 and c[3] < 0


class TestExperimentCommand:
    def test_smoke_and_determinism(self, capsys, tmp_path):
        args = (
            "experiment", "steps", "--d-list", "4,8", "--trials", "3",
            "--seed", "11", "--bitsize", "12", "--out-dir", str(tmp_path),
            "--max-grid", "4096",
        )
        code, first, err = run_cli(capsys, *args)
        assert code == 0
        csv_text = (tmp_path / "steps_scaling.csv").read_text()
        code, second, _ = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        assert (tmp_path / "steps_scaling.csv").read_text() == csv_text
        doc = json.loads(first)
        assert doc["kind"] == "steps_scaling"
        assert "timing" not in doc

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "experiment", "unknown-kind")
        assert code == 1


def test_bad_subcommand_exits_one(capsys):
    assert run_cli(capsys, "not-a-command")[0] == 1


def test_module_entry_point():
    # the package's src directory reaches the subprocess too, so this runs
    # from a fresh checkout without an install
    src = str(Path(rootiso.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rootiso", "isolate", "--coeffs", "0 1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trace"]["node_count"] == 2
