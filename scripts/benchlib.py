"""What the layer benchmarks ``scripts/bench_*.py`` share.

Importing this module pins the BLAS thread pools to one thread, so it must
come before numpy's first import, and puts ``src/`` and ``perfbench/`` of
this tree first on ``sys.path``, so that a script times the checkout it
sits in.  ``run_and_store`` parses a script's ``--label`` and ``--out``,
runs it, adds the commit (and whether ``src/`` differed from it) and the
machine to its record, and stores the record under ``runs[label]`` of its
``BENCH_*.json``, next to the runs of other labels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_and_store(doc: str, name: str, run, machine_numpy: bool = True, argv=None) -> tuple[dict, str, dict]:
    """Run ``run()``, which returns the settings and results of a record,
    and store the record in the file ``name`` at the repository root (or
    ``--out``).  ``machine_numpy`` records numpy's version with the
    machine.  Returns every stored run, this run's label and its record.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help=f"key of this run in {name}")
    parser.add_argument("--out", default=os.path.join(ROOT, name))
    args = parser.parse_args(argv)
    results = run()
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "processor": platform.machine()}
    if machine_numpy:
        import numpy as np

        machine["numpy"] = np.__version__
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no", "src")),
        "machine": machine,
        **results,
    }
    bench = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["runs"][args.label] = record
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return bench["runs"], args.label, record


def compare_hashes(runs: dict, label: str, record: dict, key: str, what: str) -> int:
    """Print, per degree, whether the hash ``key`` of this run equals that
    of every other stored run with the same seed, bitsize and sample
    count; 1 if any differs, else 0."""
    status = 0
    for other_label, other in runs.items():
        if other_label == label or other["seed"] != record["seed"] or other["bitsize"] != record["bitsize"]:
            continue
        for d, entry in record["degrees"].items():
            theirs = other["degrees"].get(d)
            if theirs is None or theirs["samples"] != entry["samples"]:
                continue
            same = theirs[key] == entry[key]
            print(f"d={int(d):5d} {what} {'equal to' if same else 'DIFFER from'} run {other_label!r}")
            status |= not same
    return status
