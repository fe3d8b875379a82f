"""Run every workload on several seeds and record the medians.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads iso-random,analyze] [--write]

Run from the repository root.  Each run is a separate ``run.py`` process,
one at a time.  For every workload and end-to-end metric this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance over the median) next to the metric's
bound from ``BENCHMARK.json``.  Two traced runs per workload on the first
seed check that the work counters repeat exactly across processes.

``--write`` stores the figures, the byte-identity digests of every
seed and a record of the machine in ``perfbench/baseline.json``, replacing
the entries of the workloads it ran; later runs of ``run.py`` compare
their digests with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[3] for line in lines if line.startswith("byte_identity")), None)
    return json.loads(lines[-1]), digest, lines


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "commit": commit,
    }


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}

    figures, digests, notes, traced = {}, {}, {}, {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        digests[workload], notes[workload] = {}, {}
        for seed in seeds:
            result, digest, lines = run_once(workload, seed, args.seconds, 0)
            digests[workload][str(seed)] = digest
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            ok &= result["correct"] and set(result["metrics"]) == set(bounds)
            # printed lines with figures the result line leaves out
            notes[workload][str(seed)] = [
                line
                for line in lines
                if line.split(" ", 1)[0]
                in ("loop", "polys_per_s", "latency_tail_ms", "probe", "fail_frac", "peak_rss_mb")
            ]
            print(f"{workload} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
            for line in notes[workload][str(seed)]:
                print(f"    {line}", flush=True)
        figures[workload] = {name: summarize(vals) for name, vals in values.items()}
        for name, fig in figures[workload].items():
            verdict = "ok" if fig["spread"] <= bounds[name] / 3 else "WIDE"
            if name != "setup_s" and fig["spread"] > bounds[name]:
                verdict, ok = "OVER BOUND", False
            print(
                f"  {workload:12s} {name:16s} median {fig['median']:.6g} "
                f"q1 {fig['q1']:.6g} q3 {fig['q3']:.6g} spread {fig['spread']:.4f} "
                f"bound {bounds[name]} {verdict}",
                flush=True,
            )
        runs = [run_once(workload, seeds[0], args.seconds, 1)[0] for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bit")}
            for r in runs
        ]
        repeat = counts[0] == counts[1]
        ok &= repeat and all(r["correct"] for r in runs) and set(runs[0]["metrics"]) == layer_names
        traced[workload] = {k: v["value"] for k, v in runs[0]["metrics"].items()}
        print(f"  {workload:12s} traced counters repeat across processes: {repeat}", flush=True)

    if args.write:
        path = os.path.join(HERE, "baseline.json")
        doc = {}
        if os.path.exists(path):
            # keep the workloads this invocation did not run
            with open(path) as fh:
                doc = json.load(fh)
        doc.update({"environment": environment(), "run_seconds": args.seconds, "seeds": seeds})
        doc["traced_seed"] = seeds[0]
        for key, part in (
            ("end_to_end", figures),
            ("run_notes", notes),
            ("per_layer", traced),
            ("digests", digests),
        ):
            doc.setdefault(key, {}).update(part)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
