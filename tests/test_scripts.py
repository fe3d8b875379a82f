"""The layer benchmarks ``scripts/bench_*.py`` wrap private library names
(``polynomial._gcd_with_derivative_mod_p``, ``polynomial._root_exponent``,
``polynomial._coprime_with_derivative``, ``regions._evaluate``,
``models.hashlib``) to count work, and share their timing loop and hash
comparison through ``scripts/benchlib.py``; a wrapped name that is renamed
or deleted, or a broken ``run()``, would otherwise break only a benchmark
run.  Each script is loaded by path; its counting helpers run on small
inputs, and its ``main()`` runs end to end on a one-sample plan."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import rootiso.polynomial as polynomial
import rootiso.regions as regions
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


def test_compare_hashes(load, capsys):
    benchlib = load("benchlib")

    def record(h, seed=1, samples=2):
        return {"seed": seed, "bitsize": 32, "corpora": {"uniform-16": {"samples": samples, "sha": h}}}

    this = record("a")
    assert benchlib.compare_hashes({"this": this, "same": record("a")}, "this", this, "corpora", "sha", "outputs") == 0
    assert capsys.readouterr().out == "corpora uniform-16: outputs equal to run 'same'\n"
    assert benchlib.compare_hashes({"this": this, "other": record("b")}, "this", this, "corpora", "sha", "outputs") == 1
    assert "DIFFER from run 'other'" in capsys.readouterr().out
    # another seed or sample count, or a run that stored no such hash, is skipped
    skipped = {"this": this, "seed": record("b", seed=2), "samples": record("b", samples=3), "old": record(None)}
    del skipped["old"]["corpora"]["uniform-16"]["sha"]
    assert benchlib.compare_hashes(skipped, "this", this, "corpora", "sha", "outputs") == 0
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
    assert outcome[0] != "fail" and sweeps >= 1 and calls >= sweeps


def test_sqfree_stages(load):
    bench = load("bench_sqfree")
    euclid, pre_test = polynomial._gcd_with_derivative_mod_p, polynomial._coprime_with_derivative
    g = uniform_model(8, 8).sample(1, 0).coeffs
    h = uniform_model(4, 8).sample(1, 0).coeffs
    square = IntPolynomial(bench.poly_mul(g, bench.poly_mul(h, h)))
    stages = bench._Stages().run([uniform_model(16, 32).sample(1, 0), square])
    assert polynomial._gcd_with_derivative_mod_p is euclid and polynomial._coprime_with_derivative is pre_test
    assert set(stages) == {"certified", "declined", "euclids", "median_k"}
    assert stages["certified"] + stages["declined"] == 2 and stages["euclids"] >= 1
    assert stages["median_k"] is not None


def test_isolate_counters(load):
    bench = load("bench_isolate")
    traces = [isolate_all(uniform_model(16, 32).sample(1, i)).trace for i in range(2)]
    counters = bench._counters(traces)
    assert set(counters) == set(bench.COUNTERS)
    assert counters == {c: sum(getattr(t, c) for t in traces) for c in bench.COUNTERS}
    assert counters["node_count"] >= 2


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
        {"UNIFORM": {16: (1, 1)}, "ROUNDS": 1, "REPEATS": 1},
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
def test_main_stores_two_runs(load, monkeypatch, tmp_path, capsys, name):
    plan, sections = _MAIN[name]
    bench = load(name)
    for attr, value in plan.items():
        monkeypatch.setattr(bench, attr, value)
    out = tmp_path / "bench.json"
    assert bench.main(["--label", "first", "--out", str(out)]) == 0
    assert bench.main(["--label", "second", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "equal to run 'first'" in printed and "DIFFER" not in printed
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    for record in runs.values():
        assert set(record) == {"commit", "uncommitted_changes", "machine", "seed", "bitsize", *sections}
        assert set(record["machine"]) == {"nproc", "python", "processor", "numpy"}
        assert (record["seed"], record["bitsize"]) == (1, 32)
        for section, (keys, hash_key) in sections.items():
            assert record[section] and all(set(entry) == keys for entry in record[section].values())
            assert {k: e[hash_key] for k, e in record[section].items()} == {
                k: e[hash_key] for k, e in runs["first"][section].items()
            }
