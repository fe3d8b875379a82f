"""Layer benchmark of the condition bracket: global_condition_bracket.

    python3 scripts/bench_bracket.py --label change

Inputs are ``benchlib.uniform`` samples for d in 16, 64, 256, 512 and
1024, bracketed with the library defaults (``rel_tol = 0.5``,
``max_grid = 2^22``), each timed by ``benchlib.fastest``; the figure is
the median over the samples, in ms.  Timing and storage are described in
``scripts/benchlib.py``; the run goes to ``BENCH_bracket.json``.

Beside each median the run records the bracket's work counts, summed over
the samples: grid levels, points scanned in float and points evaluated
exactly; and ``achieved``, the number of samples whose bracket reached the
tolerance within the grid budget.

The bracket's fields (lower, upper, grid size, spacing, achieved) of every
sample are hashed per degree; the script exits 1 if a degree's hash
differs from that of the file's baseline run (``scripts/benchlib.py``).
"""

from __future__ import annotations

import hashlib
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from speed import Clock

from rootiso.condition import global_condition_bracket

# degree: (samples, repeats per sample)
PLAN = {16: (40, 3), 64: (20, 3), 256: (8, 1), 512: (8, 3), 1024: (8, 3)}


def _fields(br) -> tuple:
    return (br.lower, br.upper, br.grid_size, br.delta, br.achieved)


def run() -> dict:
    clock = Clock()
    degrees = {}
    for d, (count, repeats) in PLAN.items():
        polys = benchlib.uniform(d, count)
        timed = [benchlib.fastest(clock, lambda: global_condition_bracket(f), repeats) for f in polys]
        scaled, wall, brackets = zip(*timed)
        fields = [_fields(br) for br in brackets]
        entry = {
            "samples": count,
            "repeats": repeats,
            "median_ms": round(statistics.median(scaled), 4),
            "wall_median_ms": round(statistics.median(wall), 4),
            "levels": sum(br.levels for br in brackets),
            "scanned": sum(br.scanned for br in brackets),
            "exact": sum(br.exact for br in brackets),
            "achieved": sum(fl[-1] for fl in fields),
            "fields_sha256": hashlib.sha256(repr(fields).encode()).hexdigest(),
        }
        print(
            f"d={d:5d} median {entry['median_ms']:10.3f} ms"
            f"  levels={entry['levels']} scanned={entry['scanned']} exact={entry['exact']}"
            f" achieved={entry['achieved']}/{count}",
            flush=True,
        )
        degrees[str(d)] = entry
    return {"degrees": degrees}


def main(argv=None) -> int:
    baseline, against, record = benchlib.run_and_store(__doc__, "BENCH_bracket.json", run, argv=argv)
    return benchlib.compare_hashes(baseline, against, record, "degrees", "fields_sha256", "bracket fields")


if __name__ == "__main__":
    sys.exit(main())
