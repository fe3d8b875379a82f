"""Layer benchmark of the condition bracket: global_condition_bracket.

    python3 scripts/bench_bracket.py --label change

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree.  Inputs are ``uniform_model(d, 32)`` samples 0 .. count-1 under
seed 1, for d in 16, 64, 256, 512 and 1024, bracketed with the library
defaults (``rel_tol = 0.5``, ``max_grid = 2^22``).  Each sample is timed
``repeats`` times and its fastest time kept; the figure is the median over
the samples, in ms.  Times are scaled to a fixed reference speed by
``perfbench/speed.py`` (a fixed big-integer kernel timed between every two
calls), since other tenants of a shared host slow a whole run for seconds
at a time; the raw wall-clock median is stored beside it.

Beside each median the run records the bracket's work counts, summed over
the samples: grid levels, points scanned in float and points evaluated
exactly.  They are deterministic and do not depend on the machine.  A
version of the bracket that does not report them is counted in a separate
untimed pass, by wrapping its float evaluator ``_horner`` (called once for
f and once for f' per level) and ``local_condition``.

The bracket's fields (lower, upper, grid size, spacing, achieved) of every
sample are hashed per degree.  The run is stored under ``runs[label]`` in
``BENCH_bracket.json`` at the repository root, next to the runs of other
labels, with the commit (and whether ``src/`` differed from it), the
machine and the settings it ran with; the script then compares its hashes
with every other stored run and exits 1 if any degree differs.
"""

from __future__ import annotations

import hashlib
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from speed import Clock

import rootiso.condition as condition
from rootiso.models import uniform_model

# degree: (samples, repeats per sample)
PLAN = {16: (40, 3), 64: (20, 3), 256: (8, 1), 512: (4, 1), 1024: (2, 1)}
BITSIZE = 32
SEED = 1


def _fields(br) -> tuple:
    return (br.lower, br.upper, br.grid_size, br.delta, br.achieved)


def _work(f, br) -> tuple[int, int, int]:
    """(levels, scanned, exact) of the bracket ``br`` of ``f``."""
    if hasattr(br, "scanned"):
        return br.levels, br.scanned, br.exact
    calls, exact = [], []
    horner, local = condition._horner, condition.local_condition

    def counting_horner(coeffs_desc, xs):
        calls.append(xs.size)
        return horner(coeffs_desc, xs)

    def counting_local(g, x):
        exact.append(x)
        return local(g, x)

    condition._horner, condition.local_condition = counting_horner, counting_local
    try:
        condition.global_condition_bracket(f)
    finally:
        condition._horner, condition.local_condition = horner, local
    return len(calls) // 2, sum(calls) // 2, len(exact)


def run() -> dict:
    clock = Clock()
    degrees = {}
    for d, (count, repeats) in PLAN.items():
        scaled, wall, fields, work = [], [], [], []
        for i in range(count):
            f = uniform_model(d, BITSIZE).sample(SEED, i)
            scaled_best = wall_best = float("inf")
            for _ in range(repeats):
                br, w, s = clock.time(lambda: condition.global_condition_bracket(f))
                scaled_best, wall_best = min(scaled_best, s), min(wall_best, w)
            scaled.append(scaled_best * 1e3)
            wall.append(wall_best * 1e3)
            fields.append(_fields(br))
            work.append(_work(f, br))
        levels, scanned, exact = (sum(column) for column in zip(*work))
        entry = {
            "samples": count,
            "repeats": repeats,
            "median_ms": round(statistics.median(scaled), 4),
            "wall_median_ms": round(statistics.median(wall), 4),
            "levels": levels,
            "scanned": scanned,
            "exact": exact,
            "achieved": sum(fl[-1] for fl in fields),
            "fields_sha256": hashlib.sha256(repr(fields).encode()).hexdigest(),
        }
        print(
            f"d={d:5d} median {entry['median_ms']:10.3f} ms  levels={levels} scanned={scanned} exact={exact}",
            flush=True,
        )
        degrees[str(d)] = entry
    return degrees


def main(argv=None) -> int:
    def record() -> dict:
        return {"bitsize": BITSIZE, "seed": SEED, "degrees": run()}

    runs, label, this = benchlib.run_and_store(__doc__, "BENCH_bracket.json", record, argv=argv)
    return benchlib.compare_hashes(runs, label, this, "fields_sha256", "bracket fields")


if __name__ == "__main__":
    sys.exit(main())
