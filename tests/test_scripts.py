"""The layer benchmarks ``scripts/bench_*.py`` wrap private library names
(``polynomial._gcd_with_derivative_mod_p``, ``polynomial._root_exponent``,
``condition._horner``, ``regions._evaluate``) to count work; a wrapped
name that is renamed or deleted would otherwise break only a benchmark
run.  Each script is loaded by path and its counting helper run on one
small input."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import rootiso.condition as condition
import rootiso.polynomial as polynomial
import rootiso.regions as regions
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


def test_bracket_work(load):
    bench = load("bench_bracket")
    f = uniform_model(16, 32).sample(1, 0)
    horner, local = condition._horner, condition.local_condition
    # a bracket without its own counters is counted by wrapping the names
    # that older brackets scanned and evaluated through; this one calls
    # neither, so the wrapped run counts nothing
    assert bench._work(f, object()) == (0, 0, 0)
    assert condition._horner is horner and condition.local_condition is local
    br = condition.global_condition_bracket(f)
    assert bench._work(f, br) == (br.levels, br.scanned, br.exact)


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
    assert stages["certified"] + stages["declined"] == 2 and stages["euclids"] >= 1
    assert stages["median_k"] is not None and all(t >= 0 for t in stages["stages_wall_ms"].values())


def test_isolate_counters(load):
    bench = load("bench_isolate")
    traces = [isolate_all(uniform_model(16, 32).sample(1, i)).trace for i in range(2)]
    counters = bench._counters(traces)
    assert set(counters) == set(bench.COUNTERS)
    assert counters == {c: sum(getattr(t, c) for t in traces) for c in bench.COUNTERS}
    assert counters["node_count"] >= 2
