"""What the layer benchmarks ``scripts/bench_*.py`` share.

Each script is run from the repository root, as

    python3 scripts/bench_<layer>.py --label NAME

Importing this module pins the BLAS thread pools to one thread, so it must
come before numpy's first import, and puts ``src/`` and ``perfbench/`` of
this tree first on ``sys.path``, so that a script times the checkout it
sits in.  Uniform inputs are ``uniform(d, count)``: ``uniform_model(d,
BITSIZE)`` samples 0 .. count-1 under ``SEED``.

Timing.  ``fastest`` times one input as ``repeats`` blocks of
back-to-back calls and keeps the time per call of the block with the
least wall time, both scaled and wall.  A block runs as many calls as
take the reference kernel's time (3 ms), going by the time of one first
call, which is not counted, since a 0.1 ms call timed alone is lost in
the clock's scaling.  Times are scaled to a fixed reference speed by
``perfbench/speed.py`` (a fixed big-integer kernel timed between every
two blocks), since other tenants of a shared host slow a whole run for
seconds at a time; each script stores the raw wall-clock median beside
the scaled one.  The block is chosen by wall time, since the least
scaled time would pick the block whose neighbouring kernel runs read
slowest, and so scaled it down the most.  Work counters are
deterministic and do not depend on the machine.

Storage.  ``run_and_store`` parses a script's ``--label`` and ``--out``,
runs it, adds the commit (and whether ``src/`` differed from it), the
machine, ``SEED`` and ``BITSIZE`` to its record, and stores the record
under ``runs[label]`` of its ``BENCH_*.json``, next to the runs of other
labels, which are kept as history.  The file is written by the library's
JSON writer (``rootiso._json``), so a non-finite number in it reads null.
The top-level ``baseline`` of the file names the one run whose outputs
are today's; a file without one takes its first run.  ``compare_hashes``
then checks the record's output hashes against that run's, as stored
before this run, and the script exits 1 if any differs.  A change that
moves an output by design records a new run and names it the baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

# after the thread pins and the path
import numpy as np
from speed import REF_KERNEL_S

from rootiso import _json
from rootiso.models import uniform_model

SEED = 1
BITSIZE = 32


def uniform(d: int, count: int) -> list:
    """``uniform_model(d, BITSIZE)`` samples 0 .. count-1 under ``SEED``."""
    return [uniform_model(d, BITSIZE).sample(SEED, i) for i in range(count)]


def fastest(clock, call, repeats: int):
    """The time per call in ms, scaled and wall, of the block with the
    least wall time among ``repeats`` blocks of back-to-back ``call()``,
    and the call's result.  A block holds as many calls as take
    ``REF_KERNEL_S`` at the wall time of a first call, which is not
    counted."""
    result, first, _ = clock.time(call)
    calls = max(1, math.ceil(REF_KERNEL_S / first))
    wall, scaled = min(clock.time(lambda: [call() for _ in range(calls)])[1:] for _ in range(repeats))
    return scaled / calls * 1e3, wall / calls * 1e3, result


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_and_store(doc: str, name: str, run, argv=None) -> tuple[str, dict | None, dict]:
    """Run ``run()``, which returns the results of a record, and store the
    record in the file ``name`` at the repository root (or ``--out``).
    Returns the baseline's label, its record as stored before this run (None
    if there was none) and this run's record.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help=f"key of this run in {name}")
    parser.add_argument("--out", default=os.path.join(ROOT, name))
    args = parser.parse_args(argv)
    results = run()
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no", "src")),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "processor": platform.machine(),
            "numpy": np.__version__,
        },
        "seed": SEED,
        "bitsize": BITSIZE,
        **results,
    }
    bench = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    baseline = bench.setdefault("baseline", args.label)
    against = bench["runs"].get(baseline)
    bench["runs"][args.label] = record
    with open(args.out, "w") as fh:
        fh.write(_json.dumps(_json.strict(bench), sort_keys=True))
    return baseline, against, record


def compare_hashes(baseline: str, against: dict | None, record: dict, section: str, key: str, what: str) -> int:
    """Print, per entry of ``record[section]``, whether its hash ``key``
    equals that of the same entry in ``against``, the run labelled
    ``baseline``, when both have the same seed, bitsize and sample count;
    1 if any differs, else 0."""
    if against is None or against.get("seed") != record["seed"] or against.get("bitsize") != record["bitsize"]:
        return 0
    status = 0
    for name, entry in record[section].items():
        theirs = against.get(section, {}).get(name)
        if theirs is None or key not in theirs or theirs["samples"] != entry["samples"]:
            continue
        same = theirs[key] == entry[key]
        print(f"{section} {name}: {what} {'equal to' if same else 'DIFFER from'} run {baseline!r}")
        status |= not same
    return status
