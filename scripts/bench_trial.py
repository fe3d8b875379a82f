"""Layer benchmark of a Monte Carlo trial's sampling and report:
RandomModel.sample, ExperimentReport.json_summary and csv_text.

    python3 scripts/bench_trial.py --label change

``RandomModel.sample`` is timed on the models of ``MODELS``: uniform
tau = 32 at d = 16, 64, 256 and 1024, and one support, one signs and one
exact-bitsize model at d = 64.  Each draws samples 0 .. count-1 under
``benchlib.SEED``, each timed by ``benchlib.fastest``; the figure is the
median over the samples, in ms.  Beside it the run records ``blocks``, the
SHA-256 digests the samples took, summed over them, and it hashes their
coefficients.

``ExperimentReport.json_summary`` and ``csv_text`` are timed on the
reports of ``run_steps_scaling`` at d = 16 (uniform, tau = 32, the
bracket with the library defaults) with 1, 10, 100 and 1000 trials
(``ROWS``), each by ``benchlib.fastest`` with ``REPEATS`` blocks.  The run
hashes the summary's JSON text and the CSV per report.

Timing and storage are described in ``scripts/benchlib.py``; the run goes
to ``BENCH_trial.json``, and the script exits 1 if a hash differs from
that of the file's baseline run (``scripts/benchlib.py``).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import types

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from speed import Clock

import rootiso.models as models
from rootiso.experiments import run_steps_scaling
from rootiso.models import exact_bitsize_model, signs_model, support_model, uniform_model

_TAU = benchlib.BITSIZE
# name: (model, samples, repeats per sample)
MODELS = {
    "uniform-16": (uniform_model(16, _TAU), 20, 3),
    "uniform-64": (uniform_model(64, _TAU), 10, 3),
    "uniform-256": (uniform_model(256, _TAU), 4, 3),
    "uniform-1024": (uniform_model(1024, _TAU), 2, 3),
    "support-64": (support_model(64, _TAU, {1, 63, *range(0, 65, 2)}), 10, 3),
    "signs-64": (signs_model(64, _TAU, [(-1) ** j for j in range(65)]), 10, 3),
    "exactbits-64": (exact_bitsize_model(64, _TAU), 10, 3),
}
# report sizes in rows (one trial each), and the timed blocks per report
ROWS = (1, 10, 100, 1000)
REPEATS = 5


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blocks(model, count: int) -> int:
    """The SHA-256 digests that samples 0 .. count-1 of ``model`` take,
    counted through a stand-in for the ``hashlib`` the sampler reads."""
    digests = 0

    def counting(data):
        nonlocal digests
        digests += 1
        return hashlib.sha256(data)

    models.hashlib = types.SimpleNamespace(sha256=counting)
    try:
        for index in range(count):
            model.sample(benchlib.SEED, index)
    finally:
        models.hashlib = hashlib
    return digests


def _time_sampler(clock, model, count: int, repeats: int) -> dict:
    timed = [
        benchlib.fastest(clock, lambda index=index: model.sample(benchlib.SEED, index), repeats)
        for index in range(count)
    ]
    scaled, wall, polys = zip(*timed)
    return {
        "samples": count,
        "repeats": repeats,
        "median_ms": round(statistics.median(scaled), 4),
        "wall_median_ms": round(statistics.median(wall), 4),
        "blocks": _blocks(model, count),
        "outputs_sha256": _sha256(repr([f.coeffs for f in polys])),
    }


def _time_report(clock, rows: int) -> dict:
    report = run_steps_scaling(lambda d: uniform_model(d, _TAU), [16], rows, benchlib.SEED)
    summary_ms, summary_wall, summary = benchlib.fastest(clock, report.json_summary, REPEATS)
    csv_ms, csv_wall, text = benchlib.fastest(clock, report.csv_text, REPEATS)
    return {
        "samples": rows,
        "repeats": REPEATS,
        "json_summary_ms": round(summary_ms, 4),
        "json_summary_wall_ms": round(summary_wall, 4),
        "csv_text_ms": round(csv_ms, 4),
        "csv_text_wall_ms": round(csv_wall, 4),
        "outputs_sha256": _sha256(json.dumps(summary, indent=2, sort_keys=True) + text),
    }


def run() -> dict:
    clock = Clock()
    sampled = {}
    for name, (model, count, repeats) in MODELS.items():
        entry = sampled[name] = _time_sampler(clock, model, count, repeats)
        print(f"sample {name:13s} median {entry['median_ms']:9.4f} ms  blocks={entry['blocks']}", flush=True)
    reports = {}
    for rows in ROWS:
        entry = reports[f"rows-{rows}"] = _time_report(clock, rows)
        print(
            f"report {rows:5d} rows  json_summary {entry['json_summary_ms']:9.4f} ms"
            f"  csv_text {entry['csv_text_ms']:9.4f} ms",
            flush=True,
        )
    return {"models": sampled, "reports": reports}


def main(argv=None) -> int:
    baseline, against, record = benchlib.run_and_store(__doc__, "BENCH_trial.json", run, argv=argv)
    status = benchlib.compare_hashes(baseline, against, record, "models", "outputs_sha256", "coefficients")
    return status | benchlib.compare_hashes(baseline, against, record, "reports", "outputs_sha256", "summary and CSV")


if __name__ == "__main__":
    sys.exit(main())
