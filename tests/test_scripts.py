"""The layer benchmarks ``scripts/bench_*.py`` wrap private library names
(``polynomial._gcd_with_derivative_mod_p``, ``polynomial._value_and_slope``,
``polynomial._coprime_with_derivative``, ``regions._evaluate``,
``solver._split_halves``, ``models.hashlib``) to count work, and share their
timing loop and hash comparison through ``scripts/benchlib.py``; a
wrapped name that is renamed or deleted, or a broken ``run()``, would
otherwise break only a benchmark run.  Each script is loaded by path;
its counting helpers run on small inputs, and its ``main()`` runs end to
end on a one-sample plan."""

import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

import pytest

import rootiso.polynomial as polynomial
import rootiso.regions as regions
import rootiso.solver as solver
from rootiso import _json
from rootiso.condition import global_condition_bracket
from rootiso.models import uniform_model
from rootiso.polynomial import IntPolynomial
from rootiso.solver import isolate_all

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def load(monkeypatch):
    """Load a script by name; ``sys.path``, the thread-pool variables that
    ``benchlib`` sets and the modules the scripts import by bare name are
    restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    before = set(sys.modules)

    def loader(name):
        spec = importlib.util.spec_from_file_location(f"rootiso_{name}", SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield loader
    for name in ("benchlib", "corpus", "speed"):
        if name not in before:
            sys.modules.pop(name, None)


class _StubClock:
    """A clock that runs each call and reads its (wall, scaled) seconds
    from ``times`` in order; ``blocks`` records how many calls each timed
    block made."""

    def __init__(self, times):
        self.times = list(times)
        self.blocks = []

    def time(self, fn):
        out = fn()
        if isinstance(out, list):
            self.blocks.append(len(out))
        wall, scaled = self.times.pop(0)
        return out, wall, scaled


def test_fastest(load):
    benchlib = load("benchlib")
    calls = []

    def call():
        calls.append(None)
        return len(calls)

    # the first call takes 2/5 of the kernel's time, so a block holds 3
    # calls; had the first call (scaled 0) been counted, the least would be 0
    clock = _StubClock([(benchlib.REF_KERNEL_S / 2.5, 0.0), (0.009, 0.012), (0.006, 0.0045), (0.012, 0.006)])
    scaled, wall, result = benchlib.fastest(clock, call, 3)
    assert clock.blocks == [3, 3, 3] and len(calls) == 10
    assert result == 1
    assert scaled == pytest.approx(1.5) and wall == pytest.approx(2.0)
    # the least wall time (block 2) and the least scaled time (block 1)
    # fall in different blocks: both figures come from block 2
    clock = _StubClock([(benchlib.REF_KERNEL_S, 0.0), (0.009, 0.001), (0.004, 0.006), (0.005, 0.002)])
    scaled, wall, result = benchlib.fastest(clock, lambda: None, 3)
    assert clock.blocks == [1, 1, 1] and result is None
    assert scaled == pytest.approx(6.0) and wall == pytest.approx(4.0)


def test_compare_hashes(load, capsys):
    benchlib = load("benchlib")

    def record(h, seed=1, samples=2):
        return {"seed": seed, "bitsize": 32, "corpora": {"uniform-16": {"samples": samples, "sha": h}}}

    this = record("a")
    assert benchlib.compare_hashes("same", record("a"), this, "corpora", "sha", "outputs") == 0
    assert capsys.readouterr().out == "corpora uniform-16: outputs equal to run 'same'\n"
    assert benchlib.compare_hashes("other", record("b"), this, "corpora", "sha", "outputs") == 1
    assert "DIFFER from run 'other'" in capsys.readouterr().out
    # a baseline of another seed or sample count, one that stored no such
    # hash, or none at all, is skipped
    old = record(None)
    del old["corpora"]["uniform-16"]["sha"]
    for label, baseline in (("seed", record("b", seed=2)), ("samples", record("b", samples=3)), ("old", old), ("new", None)):
        assert benchlib.compare_hashes(label, baseline, this, "corpora", "sha", "outputs") == 0
    assert capsys.readouterr().out == ""


def test_bracket_work(load, monkeypatch):
    bench = load("bench_bracket")
    monkeypatch.setattr(bench, "PLAN", {16: (2, 1)})
    entry = bench.run()["degrees"]["16"]
    brackets = [global_condition_bracket(uniform_model(16, 32).sample(1, i)) for i in range(2)]
    assert (entry["levels"], entry["scanned"], entry["exact"]) == tuple(
        sum(getattr(br, c) for br in brackets) for c in ("levels", "scanned", "exact")
    )
    assert entry["achieved"] == sum(br.achieved for br in brackets)


def test_oracle_counted_run(load):
    bench = load("bench_oracle")
    evaluate = regions._evaluate
    outcome, sweeps, calls = bench._counted_run(uniform_model(16, 32).sample(1, 0))
    assert regions._evaluate is evaluate
    # one evaluation per sweep, then the polish's last two steps and its
    # residual: its first step reuses the last sweep's values
    assert outcome[0] != "fail" and sweeps >= 1 and calls == sweeps + 3


def test_sqfree_stages(load):
    bench = load("bench_sqfree")
    stages = (polynomial._gcd_with_derivative_mod_p, polynomial._coprime_with_derivative, polynomial._value_and_slope)
    g = uniform_model(8, 8).sample(1, 0).coeffs
    h = uniform_model(4, 8).sample(1, 0).coeffs
    square = IntPolynomial(bench.poly_mul(g, bench.poly_mul(h, h)))
    uniform = uniform_model(16, 32).sample(1, 0)
    counts = bench._Stages().run([uniform, square])
    assert (polynomial._gcd_with_derivative_mod_p, polynomial._coprime_with_derivative, polynomial._value_and_slope) == stages
    assert set(counts) == {"certified", "declined", "euclids", "median_k"}
    assert counts["certified"] + counts["declined"] == 2 and counts["euclids"] >= 1
    # k is the exponent of the point the pre-test evaluates at: r + s
    exponents = [polynomial._root_exponent(f.coeffs) + polynomial._POINT_MARGIN for f in (uniform, square)]
    assert counts["median_k"] == statistics.median(exponents)


def test_isolate_counters(load):
    bench = load("bench_isolate")
    traces = [isolate_all(uniform_model(16, 32).sample(1, i)).trace for i in range(2)]
    counters = bench._counters(traces)
    assert set(counters) == set(bench.COUNTERS)
    assert counters == {c: sum(getattr(t, c) for t in traces) for c in bench.COUNTERS}
    assert counters["node_count"] >= 2


def test_isolate_split_calls(load):
    # the tree's splits, and at most one more per input: the reciprocal
    # phase's leaf (-1, 1) is split once by its off-zero refinement, whose
    # other steps take no split.  An even or odd input splits only its
    # roots and the nodes in (0, 1); those in (-1, 0) are mirrored
    bench = load("bench_isolate")
    split = solver._split_halves
    polys = [uniform_model(16, 32).sample(1, i) for i in range(40)]
    polys.append(IntPolynomial([3, -1, -3, 1]))  # (x^2 - 1)(x - 3)
    calls = bench._split_calls(polys)
    assert solver._split_halves is split
    splits = sum(isolate_all(f).trace.splits for f in polys)
    assert splits < calls <= splits + len(polys)
    # T_8 and 2^8 T_8(x/2): both phases split their roots and (0, 1) alone
    even = [IntPolynomial([1, 0, -32, 0, 160, 0, -256, 0, 128])]
    even.append(IntPolynomial([c << (8 - i) for i, c in enumerate(even[0].coeffs)]))
    for f in even:
        trace = isolate_all(f).trace
        ran = sum(n.variations >= 2 and not (n.depth and n.interval.hi <= 0) for n in trace.var_per_node)
        assert ran < trace.splits and bench._split_calls([f]) == ran


def test_trial_blocks(load):
    bench = load("bench_trial")
    import rootiso.models as models

    hashlib = models.hashlib
    # each coefficient takes at least one digest of its own stream; a
    # tau = 300 coefficient takes two
    assert bench._blocks(uniform_model(16, 32), 2) >= 2 * 17
    assert bench._blocks(uniform_model(4, 300), 1) >= 2 * 5
    assert models.hashlib is hashlib


_TIMES = {"samples", "repeats", "median_ms", "wall_median_ms"}

# script: (one-sample plan, {section: (an entry's keys, its hash key)})
_MAIN = {
    "bench_bracket": (
        {"PLAN": {16: (1, 1)}},
        {"degrees": (_TIMES | {"levels", "scanned", "exact", "achieved", "fields_sha256"}, "fields_sha256")},
    ),
    "bench_oracle": (
        {"PLAN": {16: (1, 1)}},
        {
            "degrees": (
                _TIMES | {"failures", "sweeps", "evaluator_calls", "calls_per_sweep", "roots_sha256"},
                "roots_sha256",
            )
        },
    ),
    "bench_isolate": (
        {"PLAN": {16: (1, 1)}, "ROUNDS": 1, "REPEATS": 1},
        {
            "degrees": (
                {"samples", "repeats", "cold_ms", "cold_wall_ms", "isolate_unit", "isolate_all", "outputs_sha256"},
                "outputs_sha256",
            ),
            "families": (_TIMES | {"mean_ms", "counters", "outputs_sha256"}, "outputs_sha256"),
        },
    ),
    "bench_trial": (
        {"MODELS": {"uniform-16": (uniform_model(16, 32), 1, 1)}, "ROWS": (1,), "REPEATS": 1},
        {
            "models": (_TIMES | {"blocks", "outputs_sha256"}, "outputs_sha256"),
            "reports": (
                {
                    "samples",
                    "repeats",
                    "json_summary_ms",
                    "json_summary_wall_ms",
                    "csv_text_ms",
                    "csv_text_wall_ms",
                    "outputs_sha256",
                },
                "outputs_sha256",
            ),
        },
    ),
    "bench_sqfree": (
        {"UNIFORM": {16: (1, 1)}, "ROUNDS": 1, "REPEATS": 1, "X2_SAMPLES": 1},
        {
            "corpora": (
                _TIMES
                | {"degrees", "mean_ms", "max_ms", "certified", "declined", "euclids", "median_k", "outputs_sha256"},
                "outputs_sha256",
            )
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_MAIN))
def test_main_stores_two_runs(load, monkeypatch, tmp_path, capsys, strict_loads, name):
    plan, sections = _MAIN[name]
    bench = load(name)
    for attr, value in plan.items():
        monkeypatch.setattr(bench, attr, value)
    out = tmp_path / "bench.json"
    assert bench.main(["--label", "first", "--out", str(out)]) == 0
    assert bench.main(["--label", "second", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "equal to run 'first'" in printed and "DIFFER" not in printed
    stored = json.loads(out.read_text())
    # the file's first run is its baseline, and only the baseline is
    # compared: a later run with other outputs is not
    assert stored["baseline"] == "first"
    for section, (_, hash_key) in sections.items():
        for entry in stored["runs"]["second"][section].values():
            entry[hash_key] = "other"
    out.write_text(json.dumps(stored))
    assert bench.main(["--label", "third", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "equal to run 'first'" in printed and "run 'second'" not in printed and "DIFFER" not in printed
    stored = strict_loads(out.read_text())
    runs = stored["runs"]
    assert set(runs) == {"first", "second", "third"} and stored["baseline"] == "first"
    del runs["second"]
    for record in runs.values():
        assert set(record) == {"commit", "uncommitted_changes", "machine", "seed", "bitsize", *sections}
        assert set(record["machine"]) == {"nproc", "python", "processor", "numpy"}
        assert (record["seed"], record["bitsize"]) == (1, 32)
        for section, (keys, hash_key) in sections.items():
            assert record[section] and all(set(entry) == keys for entry in record[section].values())
            assert {k: e[hash_key] for k, e in record[section].items()} == {
                k: e[hash_key] for k, e in runs["first"][section].items()
            }


def test_committed_bench_files_are_strict_json(strict_loads):
    # each committed BENCH_*.json is RFC 8259 JSON, and run_and_store's
    # writer gives back its bytes
    paths = sorted(SCRIPTS.parent.glob("BENCH_*.json"))
    assert [p.stem for p in paths] == ["BENCH_bracket", "BENCH_isolate", "BENCH_oracle", "BENCH_sqfree", "BENCH_trial"]
    for path in paths:
        text = path.read_text()
        assert _json.dumps(_json.strict(strict_loads(text)), sort_keys=True) == text, path.name
