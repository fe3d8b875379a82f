"""Layer benchmark of the Aberth-Ehrlich oracle: numeric_roots.

    python3 scripts/bench_oracle.py --label change

Inputs are ``benchlib.uniform`` samples for d in 16, 64, 128 and 256.
Each sample first runs once untimed, which counts its work and tells
whether the oracle converges on it.  A sample on which it does not is
counted in ``failures`` and not timed; every other sample is timed by
``benchlib.fastest``.  The figure is the median over the timed samples,
in ms.  Timing and storage are described in ``scripts/benchlib.py``; the
run goes to ``BENCH_oracle.json``.

Beside each median the run records the oracle's work, summed over all
samples, failures included: its sweeps and its calls of the fused
polynomial evaluator ``_evaluate``, with their ratio.  (The stored
``parent`` run predates the fused pass; its ``evaluator`` field names the
Horner pass it counted instead, three calls per sweep.)

Every sample's roots and residual, or its failure with the sweeps and
last residual, are hashed per degree; the script exits 1 if a degree's
hash differs from that of another stored run.
"""

from __future__ import annotations

import hashlib
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from speed import Clock

import rootiso.regions as regions

# degree: (samples, repeats per sample)
PLAN = {16: (40, 3), 64: (20, 3), 128: (10, 3), 256: (8, 1)}


def _counted_run(f) -> tuple[tuple, int, int]:
    """One untimed ``numeric_roots(f)``: (its outcome, sweeps, evaluator
    calls).  The outcome is the root set's roots and residual, or the
    failure's sweeps and last residual, as reprs."""
    calls = 0
    evaluate = regions._evaluate

    def counting_evaluate(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    regions._evaluate = counting_evaluate
    try:
        out = regions.numeric_roots(f)
    except regions.NoConvergenceError as exc:
        return ("fail", exc.sweeps, repr(exc.residual)), exc.sweeps, calls
    finally:
        regions._evaluate = evaluate
    return (repr(out.roots), repr(out.residual_bound)), out.sweeps, calls


def run() -> dict:
    clock = Clock()
    degrees = {}
    for d, (count, repeats) in PLAN.items():
        scaled, wall, outcomes = [], [], []
        sweeps = calls = failures = 0
        for f in benchlib.uniform(d, count):
            outcome, s, c = _counted_run(f)
            outcomes.append(outcome)
            sweeps, calls = sweeps + s, calls + c
            if outcome[0] == "fail":
                failures += 1
                continue
            t, w, _ = benchlib.fastest(clock, lambda: regions.numeric_roots(f), repeats)
            scaled.append(t)
            wall.append(w)
        entry = {
            "samples": count,
            "repeats": repeats,
            "failures": failures,
            "median_ms": round(statistics.median(scaled), 4),
            "wall_median_ms": round(statistics.median(wall), 4),
            "sweeps": sweeps,
            "evaluator_calls": calls,
            "calls_per_sweep": round(calls / sweeps, 4),
            "roots_sha256": hashlib.sha256(repr(outcomes).encode()).hexdigest(),
        }
        print(
            f"d={d:4d} median {entry['median_ms']:9.3f} ms  failures={failures} sweeps={sweeps}"
            f" _evaluate calls={calls} ({entry['calls_per_sweep']} per sweep)",
            flush=True,
        )
        degrees[str(d)] = entry
    return {"degrees": degrees}


def main(argv=None) -> int:
    runs, label, record = benchlib.run_and_store(__doc__, "BENCH_oracle.json", run, argv=argv)
    return benchlib.compare_hashes(runs, label, record, "degrees", "roots_sha256", "roots")


if __name__ == "__main__":
    sys.exit(main())
