"""Layer benchmark of the subdivision solver: isolate_unit and isolate_all.

    python3 scripts/bench_isolate.py --label change

Inputs are ``benchlib.uniform`` samples for d in 16, 64, 128, 256, 512
and 1024 (128 is the degree of ``perfbench``'s ``iso-random``), each
timed per entry point by ``benchlib.fastest``; the figure is the median
over the samples, in ms.  Timing and storage are described in
``scripts/benchlib.py``; the run goes to ``BENCH_isolate.json``.

The first call per degree, ``isolate_all`` on sample 0, is timed on its
own as ``cold_ms`` (and ``cold_wall_ms``): it is the first call of that
size in the process, so it includes building the solver's matrices for
that size (the halving matrix, when that size is the largest so far, and
the power-to-Bernstein matrix where the solver has one).  The medians
that follow are warm.

Beside each median the run records the work counters of the subdivision
trace, summed over the samples: nodes, float splits, nodes whose count
was read from exact vectors, exact transforms (``exact_splits``) and
midpoint evaluations, and the float splits that ``isolate_all`` ran,
counted as ``_split_halves`` calls in one more pass that is not timed
(``split_calls``: the tree's splits and those of the reciprocal phase's
off-zero refinement, which the trace does not hold).  The trace counts
the whole tree; for an even or odd input the solver splits only the root
and (0, 1) and mirrors (-1, 0), so there ``split_calls`` is the work
that ran and the trace's counters are not.  Uniform inputs hardly take the exact path, so the
run also times ``isolate_all`` on the ``iso-cluster`` corpus of
``perfbench`` (``ROUNDS`` rounds: Chebyshev, scaled Chebyshev, Mignotte,
dyadic-root products, and squares of each kind), per family, as the
median and mean of each input's fastest of ``REPEATS`` blocks, with the
same counters.

Every result's ``to_json()`` and its trace's node records are hashed per
degree (both entry points) and per family; the script exits 1 if a hash
differs from that of another stored run.
"""

from __future__ import annotations

import hashlib
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from corpus import _iso_cluster
from speed import Clock

import rootiso.solver as solver
from rootiso.polynomial import IntPolynomial
from rootiso.solver import isolate_all, isolate_unit

# degree: (samples, repeats per sample)
PLAN = {16: (100, 7), 64: (50, 7), 128: (32, 5), 256: (16, 3), 512: (8, 1), 1024: (8, 1)}
COUNTERS = ("node_count", "splits", "exact_nodes", "exact_splits", "midpoint_evaluations")
ROUNDS = 40
REPEATS = 3


def _counters(traces) -> dict:
    return {c: sum(getattr(t, c) for t in traces) for c in COUNTERS}


def _split_calls(polys) -> int:
    """The float splits (``_split_halves`` calls) that ``isolate_all``
    makes on ``polys``."""
    split, calls = solver._split_halves, 0

    def counting(node, g, first):
        nonlocal calls
        calls += 1
        return split(node, g, first)

    solver._split_halves = counting
    try:
        for f in polys:
            isolate_all(f)
    finally:
        solver._split_halves = split
    return calls


def _sha256(outputs: list) -> str:
    """The hash of each result's JSON and node records."""
    return hashlib.sha256(repr([(r.to_json(), r.trace.var_per_node) for r in outputs]).encode()).hexdigest()


def run() -> dict:
    clock = Clock()
    degrees = {}
    for d, (count, repeats) in PLAN.items():
        polys = benchlib.uniform(d, count)
        _, cold_wall, cold_scaled = clock.time(lambda: isolate_all(polys[0]))
        entry = {
            "samples": count,
            "repeats": repeats,
            "cold_ms": round(cold_scaled * 1e3, 4),
            "cold_wall_ms": round(cold_wall * 1e3, 4),
        }
        print(f"d={d:5d} first call   {entry['cold_ms']:10.3f} ms", flush=True)
        outputs = []
        for name, fn in (("isolate_unit", isolate_unit), ("isolate_all", isolate_all)):
            scaled, wall, results = zip(*(benchlib.fastest(clock, lambda: fn(f), repeats) for f in polys))
            counters = _counters([r.trace for r in results])
            entry[name] = {
                "median_ms": round(statistics.median(scaled), 4),
                "wall_median_ms": round(statistics.median(wall), 4),
                "counters": counters,
            }
            if fn is isolate_all:
                counters["split_calls"] = _split_calls(polys)
            outputs.extend(results)
            print(f"d={d:5d} {name:12s} median {entry[name]['median_ms']:10.3f} ms  {counters}", flush=True)
        entry["outputs_sha256"] = _sha256(outputs)
        degrees[str(d)] = entry
    families = {}
    for item in _iso_cluster(benchlib.SEED, ROUNDS):
        families.setdefault(item.label, []).append(IntPolynomial(item.coeffs))
    for label, polys in families.items():
        scaled, wall, results = zip(*(benchlib.fastest(clock, lambda: isolate_all(f), REPEATS) for f in polys))
        entry = families[label] = {
            "samples": len(polys),
            "repeats": REPEATS,
            "median_ms": round(statistics.median(scaled), 4),
            "mean_ms": round(statistics.fmean(scaled), 4),
            "wall_median_ms": round(statistics.median(wall), 4),
            "counters": {**_counters([r.trace for r in results]), "split_calls": _split_calls(polys)},
            "outputs_sha256": _sha256(results),
        }
        print(f"{label:18s} isolate_all median {entry['median_ms']:8.3f} ms  mean {entry['mean_ms']:8.3f} ms"
              f"  {entry['counters']}", flush=True)
    return {"degrees": degrees, "families": families}


def main(argv=None) -> int:
    runs, label, record = benchlib.run_and_store(__doc__, "BENCH_isolate.json", run, argv=argv)
    status = benchlib.compare_hashes(runs, label, record, "degrees", "outputs_sha256", "outputs")
    return status | benchlib.compare_hashes(runs, label, record, "families", "outputs_sha256", "outputs")


if __name__ == "__main__":
    sys.exit(main())
