"""Layer benchmark of the Aberth-Ehrlich oracle: numeric_roots.

    python3 scripts/bench_oracle.py --label change

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree.  Inputs are ``uniform_model(d, 32)`` samples 0 .. count-1 under
seed 1, for d in 16, 64, 128 and 256.  Each sample first runs once
untimed, which counts its work and tells whether the oracle converges on
it.  A sample on which it does not is counted in ``failures`` and not
timed; every other sample is timed ``repeats`` times and its fastest time
kept.  The figure is the median over the timed samples, in ms.  Times are
scaled to a fixed reference speed by ``perfbench/speed.py`` (a fixed
big-integer kernel timed between every two calls), since other tenants of
a shared host slow a whole run for seconds at a time; the raw wall-clock
median is stored beside it.

Beside each median the run records the oracle's work, summed over all
samples, failures included: its sweeps and its calls of the fused
polynomial evaluator ``_evaluate``, with their ratio.  The counts are
deterministic and do not depend on the machine.  (The stored ``parent``
run predates the fused pass; its ``evaluator`` field names the Horner pass
it counted instead, three calls per sweep.)

Every sample's roots and residual, or its failure with the sweeps and
last residual, are hashed per degree.  The run is stored under
``runs[label]`` in ``BENCH_oracle.json`` at the repository root, next to
the runs of other labels, with the commit (and whether ``src/`` differed
from it), the machine and the settings it ran with; the script then
compares its hashes with every other stored run and exits 1 if any degree
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from speed import Clock  # noqa: E402

import rootiso.regions as regions  # noqa: E402
from rootiso.models import uniform_model  # noqa: E402

# degree: (samples, repeats per sample)
PLAN = {16: (40, 3), 64: (20, 3), 128: (10, 3), 256: (8, 1)}
BITSIZE = 32
SEED = 1


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
        for i in range(count):
            f = uniform_model(d, BITSIZE).sample(SEED, i)
            outcome, s, c = _counted_run(f)
            outcomes.append(outcome)
            sweeps, calls = sweeps + s, calls + c
            if outcome[0] == "fail":
                failures += 1
                continue
            scaled_best = wall_best = float("inf")
            for _ in range(repeats):
                _, w, t = clock.time(lambda: regions.numeric_roots(f))
                scaled_best, wall_best = min(scaled_best, t), min(wall_best, w)
            scaled.append(scaled_best * 1e3)
            wall.append(wall_best * 1e3)
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
    return degrees


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in BENCH_oracle.json")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_oracle.json"))
    args = parser.parse_args(argv)
    # a failing sample overflows on its way; the failure itself is recorded
    warnings.simplefilter("ignore", RuntimeWarning)
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no", "src")),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "bitsize": BITSIZE,
        "seed": SEED,
        "degrees": run(),
    }
    bench = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["runs"][args.label] = record
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = 0
    for label, other in bench["runs"].items():
        if label == args.label:
            continue
        for d, entry in record["degrees"].items():
            theirs = other["degrees"].get(d)
            if theirs is None or other["seed"] != SEED or other["bitsize"] != BITSIZE:
                continue
            if theirs["samples"] != entry["samples"]:
                continue
            same = theirs["roots_sha256"] == entry["roots_sha256"]
            print(f"d={int(d):4d} roots {'equal to' if same else 'DIFFER from'} run {label!r}")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
