"""The benchmark's tracer (``perfbench/tracer.py``) rebinds library
functions by name; a traced function that is renamed or deleted would
otherwise break only the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import rootiso.cli  # noqa: F401  (the tracer rebinds names in every rootiso module)
import rootiso.polynomial as polynomial
import rootiso.regions as regions
from rootiso.experiments import run_steps_scaling
from rootiso.models import RandomModel, uniform_model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    modules = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "rootiso" or name.startswith("rootiso.")
    }
    classes = {cls: dict(cls.__dict__) for cls in (polynomial.IntPolynomial, RandomModel)}
    return modules, classes


def _same(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_install_and_uninstall_restore_every_binding():
    modules, classes = _bindings()
    numeric_roots = regions.numeric_roots
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert regions.numeric_roots is not numeric_roots
        assert regions.numeric_roots.__wrapped__ is numeric_roots
        assert polynomial.IntPolynomial.taylor_shift.__wrapped__ is classes[polynomial.IntPolynomial]["taylor_shift"]
    finally:
        tracer.uninstall()
    after_modules, after_classes = _bindings()
    assert modules.keys() == after_modules.keys()
    for name in modules:
        assert _same(modules[name], after_modules[name]), name
    for cls in classes:
        assert _same(classes[cls], after_classes[cls]), cls


def test_traced_multi_worker_run_matches_untraced_one():
    # the process pool pickles the function it maps by name, so a traced
    # run, whose measure_trial is the tracer's closure, still fans out
    def run(workers):
        report = run_steps_scaling(lambda d: uniform_model(d, 16), [8], 4, 3, workers=workers, max_grid=1 << 12)
        return [row.csv_cells() for row in report.rows]

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run(2)
    finally:
        tracer.uninstall()
    assert traced == run(1)
