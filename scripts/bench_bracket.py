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

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from speed import Clock  # noqa: E402

import rootiso.condition as condition  # noqa: E402
from rootiso.models import uniform_model  # noqa: E402

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


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in BENCH_bracket.json")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_bracket.json"))
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
            same = theirs["fields_sha256"] == entry["fields_sha256"]
            print(f"d={int(d):5d} bracket fields {'equal to' if same else 'DIFFER from'} run {label!r}")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
