"""Layer benchmark of the subdivision solver: isolate_unit and isolate_all.

    python3 scripts/bench_isolate.py --label change

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree.  Inputs are ``uniform_model(d, 32)`` samples 0 .. count-1 under
seed 1, for d in 16, 64, 256, 512 and 1024.  Each sample is timed
``repeats`` times per entry point and its fastest time kept; the figure
is the median over the samples, in ms.  Times are scaled to a fixed
reference speed by ``perfbench/speed.py`` (a fixed big-integer kernel
timed between every two calls), since other tenants of a shared host
slow a whole run for seconds at a time; the raw wall-clock median is
stored beside it.

The first call per degree, ``isolate_all`` on sample 0, is timed on its
own as ``cold_ms`` (and ``cold_wall_ms``): it is the first call of that
size in the process, so it includes building the solver's matrices for
that size (the halving matrix when it grows, and the power-to-Bernstein
matrix where the solver has one).  The medians that follow are warm.

Beside each median the run records the work counters of the subdivision
trace, summed over the samples: nodes, float splits, nodes whose count
was read from exact vectors, exact splits and midpoint evaluations.  They
are deterministic and do not depend on the machine.  A version of the
solver whose trace lacks a counter records null for it.

The run is stored under ``runs[label]`` in ``BENCH_isolate.json`` at the
repository root, next to the runs of other labels, with the commit (and
whether ``src/`` differed from it), the machine and the settings it ran
with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from speed import Clock  # noqa: E402

from rootiso.models import uniform_model  # noqa: E402
from rootiso.solver import isolate_all, isolate_unit  # noqa: E402

# degree: (samples, repeats per sample)
PLAN = {16: (100, 3), 64: (50, 3), 256: (16, 3), 512: (8, 1), 1024: (8, 1)}
BITSIZE = 32
SEED = 1
COUNTERS = ("node_count", "splits", "exact_nodes", "exact_splits", "midpoint_evaluations")


def _fastest(clock: Clock, fn, f, repeats: int):
    """The fastest of ``repeats`` calls in ms, scaled and wall, and the
    call's result."""
    scaled_best = wall_best = float("inf")
    for _ in range(repeats):
        result, wall, scaled = clock.time(lambda: fn(f))
        scaled_best, wall_best = min(scaled_best, scaled), min(wall_best, wall)
    return scaled_best * 1e3, wall_best * 1e3, result


def run() -> dict:
    clock = Clock()
    degrees = {}
    for d, (count, repeats) in PLAN.items():
        polys = [uniform_model(d, BITSIZE).sample(SEED, i) for i in range(count)]
        _, cold_wall, cold_scaled = clock.time(lambda: isolate_all(polys[0]))
        entry = {
            "samples": count,
            "repeats": repeats,
            "cold_ms": round(cold_scaled * 1e3, 4),
            "cold_wall_ms": round(cold_wall * 1e3, 4),
        }
        print(f"d={d:5d} first call   {entry['cold_ms']:10.3f} ms", flush=True)
        for name, fn in (("isolate_unit", isolate_unit), ("isolate_all", isolate_all)):
            scaled, wall, results = zip(*(_fastest(clock, fn, f, repeats) for f in polys))
            traces = [r.trace for r in results]
            counters = {c: sum(getattr(t, c) for t in traces) if hasattr(traces[0], c) else None for c in COUNTERS}
            entry[name] = {
                "median_ms": round(statistics.median(scaled), 4),
                "wall_median_ms": round(statistics.median(wall), 4),
                "counters": counters,
            }
            print(f"d={d:5d} {name:12s} median {entry[name]['median_ms']:10.3f} ms  {counters}", flush=True)
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
    parser.add_argument("--label", required=True, help="key of this run in BENCH_isolate.json")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_isolate.json"))
    args = parser.parse_args(argv)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
