"""Layer benchmark of the subdivision solver: isolate_unit and isolate_all.

    python3 scripts/bench_isolate.py --label change

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree.  Inputs are ``uniform_model(d, 32)`` samples 0 .. count-1 under
seed 1, for d in 16, 64, 256, 512 and 1024.  Each sample is timed per
entry point as ``repeats`` blocks of back-to-back calls, and the fastest
block's time per call is kept; the figure is the median over the
samples, in ms.  A block runs as many calls as take the reference
kernel's time (3 ms), going by the time of one first call, since a
0.2 ms call timed alone is lost in the clock's scaling.  Times are scaled
to a fixed reference speed by ``perfbench/speed.py`` (a fixed big-integer
kernel timed between every two blocks), since other tenants of a shared
host slow a whole run for seconds at a time; the raw wall-clock median is
stored beside it.

The first call per degree, ``isolate_all`` on sample 0, is timed on its
own as ``cold_ms`` (and ``cold_wall_ms``): it is the first call of that
size in the process, so it includes building the solver's matrices for
that size (the halving matrix when it grows, and the power-to-Bernstein
matrix where the solver has one).  The medians that follow are warm.

Beside each median the run records the work counters of the subdivision
trace, summed over the samples: nodes, float splits, nodes whose count
was read from exact vectors, exact transforms (``exact_splits``) and
midpoint evaluations.  They are deterministic and do not depend on the
machine.  A version of the solver whose trace lacks a counter records
null for it.  Uniform inputs hardly take the exact path, so the run also
times ``isolate_all`` on the ``iso-cluster`` corpus of ``perfbench``
(``ROUNDS`` rounds under seed 1: Chebyshev, scaled Chebyshev, Mignotte,
dyadic-root products, and squares of each kind), per family, as the
median and mean of each input's fastest of ``REPEATS`` blocks, with the
same counters.

The run is stored under ``runs[label]`` in ``BENCH_isolate.json`` at the
repository root, next to the runs of other labels, with the commit (and
whether ``src/`` differed from it), the machine and the settings it ran
with.
"""

from __future__ import annotations

import math
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from corpus import _iso_cluster
from speed import REF_KERNEL_S, Clock

from rootiso.models import uniform_model
from rootiso.polynomial import IntPolynomial
from rootiso.solver import isolate_all, isolate_unit

# degree: (samples, repeats per sample)
PLAN = {16: (100, 7), 64: (50, 7), 256: (16, 3), 512: (8, 1), 1024: (8, 1)}
BITSIZE = 32
SEED = 1
COUNTERS = ("node_count", "splits", "exact_nodes", "exact_splits", "midpoint_evaluations")
ROUNDS = 40
REPEATS = 3


def _fastest(clock: Clock, fn, f, repeats: int):
    """The time per call in ms, scaled and wall, of the fastest of
    ``repeats`` blocks of back-to-back calls, and the call's result.  A
    block holds as many calls as take ``REF_KERNEL_S`` at the wall time of
    a first call, which is not counted."""
    result, first, _ = clock.time(lambda: fn(f))
    calls = max(1, math.ceil(REF_KERNEL_S / first))
    scaled_best = wall_best = float("inf")
    for _ in range(repeats):
        _, wall, scaled = clock.time(lambda: [fn(f) for _ in range(calls)])
        scaled_best, wall_best = min(scaled_best, scaled / calls), min(wall_best, wall / calls)
    return scaled_best * 1e3, wall_best * 1e3, result


def _counters(traces) -> dict:
    return {c: sum(getattr(t, c) for t in traces) if hasattr(traces[0], c) else None for c in COUNTERS}


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
            counters = _counters([r.trace for r in results])
            entry[name] = {
                "median_ms": round(statistics.median(scaled), 4),
                "wall_median_ms": round(statistics.median(wall), 4),
                "counters": counters,
            }
            print(f"d={d:5d} {name:12s} median {entry[name]['median_ms']:10.3f} ms  {counters}", flush=True)
        degrees[str(d)] = entry
    families = {}
    for item in _iso_cluster(SEED, ROUNDS):
        families.setdefault(item.label, []).append(IntPolynomial(item.coeffs))
    for label, polys in families.items():
        scaled, wall, results = zip(*(_fastest(clock, isolate_all, f, REPEATS) for f in polys))
        entry = families[label] = {
            "samples": len(polys),
            "repeats": REPEATS,
            "median_ms": round(statistics.median(scaled), 4),
            "mean_ms": round(statistics.fmean(scaled), 4),
            "wall_median_ms": round(statistics.median(wall), 4),
            "counters": _counters([r.trace for r in results]),
        }
        print(f"{label:18s} isolate_all median {entry['median_ms']:8.3f} ms  mean {entry['mean_ms']:8.3f} ms"
              f"  {entry['counters']}", flush=True)
    return {"bitsize": BITSIZE, "seed": SEED, "degrees": degrees, "families": families}


def main(argv=None) -> int:
    benchlib.run_and_store(__doc__, "BENCH_isolate.json", run, argv=argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
