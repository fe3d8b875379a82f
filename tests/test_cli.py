import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rootiso
from rootiso import cli
from rootiso.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _uniform_64(index):
    """Coefficients of ``uniform_model(64, 32).sample(1, index)`` as text."""
    return " ".join(map(str, rootiso.uniform_model(64, 32).sample(1, index).coeffs))


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

    @pytest.mark.parametrize("command", ["isolate", "analyze"])
    def test_zero_polynomial_exit_code(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--coeffs", "0 0 0")
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

    @pytest.mark.parametrize("unit_only", [[], ["--unit-only"]])
    def test_stats_on_stderr_only(self, capsys, unit_only):
        # --stats adds one line of work counts per input to stderr and
        # leaves stdout byte for byte as it is
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        code, plain, quiet = run_cli(capsys, "isolate", *unit_only, "--input", str(corpus))
        assert code == 0 and quiet == ""
        code, out, err = run_cli(capsys, "isolate", *unit_only, "--stats", "--input", str(corpus))
        assert code == 0 and out == plain
        polys = [rootiso.IntPolynomial.from_text(line) for line in corpus.read_text().splitlines() if line.strip()]
        solve = rootiso.isolate_unit if unit_only else rootiso.isolate_all
        want = []
        for index, f in enumerate(polys, start=1):
            t = solve(f).trace
            want.append(
                f"stats input={index} nodes={t.node_count} splits={t.splits} exact_nodes={t.exact_nodes} "
                f"exact_splits={t.exact_splits} midpoint_evaluations={t.midpoint_evaluations}"
            )
        assert err.splitlines() == want
        assert sum(int(line.split("exact_splits=")[1].split()[0]) for line in want) > 0


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

    def test_coefficients_beyond_float_range(self, capsys):
        # A x^2 + 3x - A, A = 2^1100 + 1: neither A nor 2A converts to a float
        a = (1 << 1100) + 1
        text = f"{-a} 3 {a}"
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", text)
        assert code == 0
        doc = json.loads(out)
        assert doc["rho_count"] == {"min": 2, "max": 2}
        assert doc["separation"] == pytest.approx(2.0, abs=1e-9)
        roots = rootiso.regions.numeric_roots(rootiso.IntPolynomial.from_text(text)).roots
        assert [z.imag for z in roots] == [0.0, 0.0]
        assert [z.real for z in roots] == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_one_oracle_pass(self, capsys, monkeypatch):
        # the separation and the cover count share one root set
        calls = []
        oracle = rootiso.regions.numeric_roots

        def counting_oracle(f):
            calls.append(f.degree)
            return oracle(f)

        monkeypatch.setattr(rootiso.cli, "numeric_roots", counting_oracle)
        monkeypatch.setattr(rootiso.regions, "numeric_roots", counting_oracle)
        # (x - 3)^2 included: its repeated part gets no oracle pass of its own
        for coeffs, degree in (("-1 0 4", 2), ("3 -1 -7 2 5 1", 5), ("1 2", 1), ("9 -6 1", 2)):
            calls.clear()
            code, out, _ = run_cli(capsys, "analyze", "--coeffs", coeffs, "--max-grid", "65536")
            assert code == 0 and json.loads(out)["separation_bound"] is not None
            assert calls == [degree]

    def test_one_gcd_of_a_repeated_root_input(self, capsys, monkeypatch):
        # the oracle's square-free part is the only gcd(f, f') taken of f:
        # no repeated-root check runs next to it
        calls = []
        gcd = rootiso.polynomial._gcd_with_derivative

        def counting_gcd(fp):
            calls.append(fp)
            return gcd(fp)

        monkeypatch.setattr(rootiso.polynomial, "_gcd_with_derivative", counting_gcd)
        monkeypatch.setattr(rootiso.regions, "_gcd_with_derivative", counting_gcd)
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "9 -6 1")
        assert code == 0 and json.loads(out)["separation_bound"] is not None
        assert calls.count(rootiso.IntPolynomial.from_text("9 -6 1")) == 1

    def test_one_certificate_per_square_free_input(self, capsys, monkeypatch):
        # one square-free certificate per square-free input, taken by the
        # oracle's square_free_part: the certificate is the pre-test, and no
        # modular Euclid runs; the even 4x^2 - 1 is certified on its
        # degree-1 half 4y - 1, and the dyadic-roots input, x times a
        # quartic, on that quartic
        calls = []
        certify = rootiso.polynomial._coprime_with_derivative
        euclid = rootiso.polynomial._gcd_with_derivative_mod_p

        def counting_certify(f):
            calls.append(f.degree)
            return certify(f)

        def counting_euclid(f, p):
            calls.append((f.degree, p))
            return euclid(f, p)

        monkeypatch.setattr(rootiso.polynomial, "_coprime_with_derivative", counting_certify)
        monkeypatch.setattr(rootiso.polynomial, "_gcd_with_derivative_mod_p", counting_euclid)
        for coeffs, degree in (("-1 0 4", 1), ("3 -1 -7 2 5 1", 5), ("0 15 -19 -58 40 64", 4), (_uniform_64(0), 64)):
            calls.clear()
            code, out, _ = run_cli(capsys, "analyze", "--coeffs", coeffs, "--max-grid", "65536")
            assert code == 0 and json.loads(out)["separation_bound"] is not None
            assert calls == [degree]

    # sha256 of the stdout of `rootiso analyze --coeffs ...`.  Every field
    # is fixed by exact arithmetic once the bracket's stop rule and bounds
    # and the disk cover are fixed: a faster scan, solver or oracle must
    # leave these digests unchanged, and only a change to what the bracket
    # or the cover certifies may move them.
    GOLDEN = {
        "quadratic": (("-1 0 4",), "7b3f188e0596072cf648b3bff40d7c18a91140dc7ad2a08734e36ee79a0e022d"),
        "degree-one": (("0 1",), "78a5c6cd66bcfe4647ee89a0a0569cb450b00e0abb3ee60927685c862430e35d"),
        # singular at the grid point 1/2: the bracket stops at its first grid
        "double-root": (("1 -4 4",), "09c1caf89d8d2c3487cabf77c20401832052e49aaf148c61aaca7794c7e574fd"),
        # roots 1/2, -3/4, 5/8, -1 and 0, all dyadic grid points
        "dyadic-roots": (("0 15 -19 -58 40 64",), "70134a54ed0c36959ecb4bc3e981ca68caafd2f55708929ee1ae4afd84d66383"),
        "uniform-0": ((_uniform_64(0),), "cfd4341871149c89da26819e72e86ab16c8e954ed4cd852b77f31cfb8e82fb69"),
        "uniform-1": ((_uniform_64(1),), "df5360f4dde1bc3a0beeb393148abde2112415a6c1fe53efb0d151d755b9924c"),
        "uniform-2": ((_uniform_64(2),), "be885ed3019ab7703caf5dfeae332fcdaf084bf84a50b07af27267f81cec1d87"),
        "uniform-3": ((_uniform_64(3),), "c6c04740eda398dc260397ff45745e2abd8426d15ae9283255ea003324b3910f"),
        "uniform-4": ((_uniform_64(4),), "2734fa1065c6566cb5c869d9023219cd790d6e8fed9a62760d9de2372d591f59"),
        "uniform-5": ((_uniform_64(5),), "028afb508e27589be32af6610dc2148218385bfc269468995d97cb03d050a97b"),
        # the grid budget runs out before the tolerance is met: achieved is
        # false, with a finite upper end
        "uniform-0-small-grid": (
            (_uniform_64(0), "--max-grid", "2048", "--rel-tol", "0.01"),
            "00f0f172b0bcd99fa46a414e1231692cbfc7109a9db439c8daffebb53fb1945c",
        ),
        # repeated roots: (8x - 9)^2 (4x^2 - 1) just outside the interval,
        # (16x^2 + 1)^2 at +-i/4 and (x - 3)^2 far from it
        "repeated-near": (("-81 144 260 -576 256",), "df4eea9a60465424292c1729b0aa6a85e20c05acc68ac6b2745593d9f8441103"),
        "repeated-complex": (("1 0 32 0 256",), "bcfa2d5f17705394330b483d265ef4356edfb6793f5ad0e1b1e22ee92480993c"),
        "repeated-far": (("9 -6 1",), "47558ad7be3c67eefbfec0ee4ff345808065241e6116814736ea828f089cd180"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_outputs(self, capsys, name):
        argv, digest = self.GOLDEN[name]
        code, out, err = run_cli(capsys, "analyze", "--coeffs", *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_stats_on_stderr_only(self, capsys):
        # --stats adds the bracket's and the oracle's work counts to stderr
        # and leaves stdout byte for byte as it is
        for coeffs, max_grid in (("-1 0 4", 1 << 22), (_uniform_64(0), 1 << 22), (_uniform_64(0), 4096)):
            argv = ("analyze", "--coeffs", coeffs, "--max-grid", str(max_grid))
            code, plain, quiet = run_cli(capsys, *argv)
            assert code == 0 and quiet == ""
            code, out, err = run_cli(capsys, *argv, "--stats")
            assert code == 0 and out == plain
            f = rootiso.IntPolynomial.from_text(coeffs)
            br = rootiso.global_condition_bracket(f, max_grid=max_grid)
            sweeps = rootiso.numeric_roots(f).sweeps
            assert err == f"stats levels={br.levels} scanned={br.scanned} exact={br.exact} sweeps={sweeps}\n"
            assert 0 < br.exact < br.scanned and br.levels > 0 and 0 < sweeps < 500
        # a constant runs no oracle
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "5", "--stats")
        assert code == 0 and err == "stats levels=0 scanned=0 exact=0 sweeps=0\n"

    def test_stats_of_a_failed_oracle(self, capsys):
        f = rootiso.uniform_model(256, 32).sample(1, 6)
        code, out, err = run_cli(capsys, "analyze", "--coeffs", " ".join(map(str, f.coeffs)), "--stats")
        assert code == 2 and out == ""
        stats, message = err.splitlines()
        # the oracle stops at its first NaN residual, after 6 of 500 sweeps
        assert stats.startswith("stats levels=") and stats.endswith(" sweeps=6")
        assert message.startswith("rootiso: computational error: no convergence: degree 256, 6 sweeps")

    def test_non_convergence_diagnostics_on_stderr(self, capsys):
        f = rootiso.uniform_model(256, 32).sample(1, 6)
        code, out, err = run_cli(capsys, "analyze", "--coeffs", " ".join(map(str, f.coeffs)))
        assert code == 2 and out == ""
        assert "rootiso: computational error: no convergence: degree 256, 6 sweeps" in err
        assert "last residual" in err and "tol 1e-10" in err


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

    def test_cond_tail_local_default_grid_at_even_bitsize(self, capsys, tmp_path):
        # the local variant's thresholds stop at 2^tau, the global one's at
        # 2^(tau+1), so each default grid is built from its own limit
        code, out, err = run_cli(
            capsys, "experiment", "cond-tail-local", "--degree", "24", "--bitsize", "16",
            "--trials", "6", "--seed", "5", "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        assert json.loads(out)["config"]["t_grid"] == [float(2**k) for k in range(1, 16, 2)]

    # `--format both` files of one small run per kind, all with --seed 5.
    # Experiment CSV and JSON are byte-stable: work on the harness must
    # leave these digests unchanged.
    GOLDEN = {
        ("steps", "--d-list", "4,8", "--trials", "6", "--bitsize", "12", "--max-grid", "4096"): {
            "steps_scaling.csv": "5f77a3462498d9cca5461a989437ec1144ec0cf0f4f8ae20b19de3465455aada",
            "steps_scaling.json": "ff547fb09744fd4eb8b989e8b12d7fd8405b197ac8d1584724437d5ceadfb19d",
        },
        ("cond-tail", "--degree", "8", "--bitsize", "16", "--trials", "8", "--max-grid", "4096"): {
            "cond_tail.csv": "4772ba981fa4d889606d91f5f8376e1f45674cc4451a597ee454e808a8efe977",
            "cond_tail.json": "d2f5161d73e6a9b7e3b8a6e9c300c920b33e144831f0526d6eef92b949a7b472",
        },
        ("cond-tail-local", "--degree", "8", "--bitsize", "15", "--trials", "8"): {
            "cond_tail_local.csv": "270c3f95b749269cfa21b2adac52d58764b55ef55d500ef5e2dee8ac74c3b517",
            "cond_tail_local.json": "9bfa2aa56ffa1443a4bd1bd71e76c7aabe839d88af29f674ec01813bfed3b12b",
        },
        ("rho-check", "--degree", "8", "--bitsize", "48", "--trials", "8"): {
            "rho_check.csv": "770471054c073567fdd60c2559514ea4c95c198b812f10cd5531ff4f4b96faf1",
            "rho_check.json": "5d3823685122eca03783aab672732912117ad03cd4e42dd70e8de7679c059971",
        },
        (
            "instance-bound", "--degree", "8", "--bitsize", "16", "--trials", "8",
            "--max-grid", "16384",
        ): {
            "instance_bound.csv": "8b3ac3e45cebbaf16269aca1c86863c559ba324e5f3db772414511923a5bf94a",
            "instance_bound.json": "186ef776143297a64db203c0e7a57bc77ec4fd6ec25a4cb995b602fab7069523",
        },
    }

    @pytest.mark.parametrize("argv", list(GOLDEN), ids=[argv[0] for argv in GOLDEN])
    def test_golden_outputs(self, capsys, tmp_path, argv):
        code, _, err = run_cli(
            capsys, "experiment", *argv, "--seed", "5", "--format", "both",
            "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == self.GOLDEN[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "steps", "--trials", "1", "--d-list", "4,x"),
        ("experiment", "cond-tail", "--trials", "1", "--t-grid", "4,x"),
        ("gen", "--model", "support", "--support", "0,x"),
    ],
    ids=["d-list", "t-grid", "support"],
)
def test_malformed_list_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"argument {argv[-2]}: expected comma-separated" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--count", "-2"),
        ("gen", "--count", "0"),
        ("experiment", "steps", "--trials", "0"),
        ("analyze", "--coeffs", "-1 0 4", "--rel-tol", "-1"),
        ("analyze", "--coeffs", "-1 0 4", "--rel-tol", "nan"),
        ("experiment", "cond-tail", "--trials", "2", "--t-grid", "0.5"),
        ("experiment", "rho-check", "--trials", "2", "--degree", "1"),
        ("experiment", "steps", "--trials", "2", "--d-list", "8,8"),
        ("experiment", "rho-check", "--trials", "2", "--t-grid", "0,3"),
        ("experiment", "rho-check", "--trials", "2", "--t-grid", "-5"),
        ("analyze", "--coeffs", "-1 0 4", "--max-grid", "0"),
        ("analyze", "--coeffs", "-1 0 4", "--max-grid", "-5"),
        ("experiment", "steps", "--trials", "2", "--max-grid", "0"),
        ("experiment", "rho-check", "--degree", "8", "--bitsize", "48", "--trials", "2", "--t-grid", "1000"),
        ("experiment", "cond-tail", "--degree", "8", "--bitsize", "16", "--trials", "2", "--t-grid", "1e30"),
        ("experiment", "cond-tail-local", "--degree", "8", "--bitsize", "16", "--trials", "2", "--t-grid", "4,65537"),
    ],
    ids=["count-negative", "count-zero", "trials-zero", "rel-tol-negative", "rel-tol-nan", "t-grid-below-one",
         "rho-check-degree-one", "d-list-repeated", "rho-check-t-grid-zero", "rho-check-t-grid-negative",
         "max-grid-zero", "max-grid-negative", "experiment-max-grid-zero", "rho-check-t-grid-above-limit",
         "cond-tail-t-grid-above-limit", "cond-tail-local-t-grid-above-limit"],
)
def test_out_of_range_flag_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    # rejected before any output or run: exit 1, not a computational error
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"argument {argv[-2]}: " in err and "computational error" not in err
    assert list(tmp_path.iterdir()) == []


def test_bad_subcommand_exits_one(capsys):
    assert run_cli(capsys, "not-a-command")[0] == 1
    # a removed flag is a usage error too; the oracle tolerance is fixed
    code, out, err = run_cli(capsys, "analyze", "--coeffs", "-1 0 4", "--oracle-tol", "1e-8")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --oracle-tol" in err


def test_parser_built_once_per_process(capsys):
    # main reuses one argparse tree; a usage error in between leaves no
    # state in it that changes the next run
    cli._build_parser.cache_clear()
    argv = ("analyze", "--coeffs", "3 -1 -7 2 5 1", "--max-grid", "65536")
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, "analyze", "--coeffs", "1 2", "--no-such-flag")[0] == 1
    second = run_cli(capsys, *argv)
    assert first[0] == 0 and first == second
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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
