"""rootiso benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload iso-random --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``rootiso`` is imported from ``src/`` of
this tree.  One operation is in flight at a time; the next starts when
the previous call returns.  The loop runs whole rounds (one input per
slot of the workload's fixed mix, see ``corpus.py``), cycling through
the seeded corpus, until ``--seconds`` have passed and every input has
run at least once.

Workloads:

* ``iso-random``  ``isolate_all`` on uniform tau = 32 polynomials, d = 128.
  Few subdivision nodes, each costing O(d^2) big-integer work: the
  per-node-cost regime.
* ``iso-cluster`` ``isolate_all`` on Chebyshev, stretched Chebyshev,
  Mignotte, dyadic-root products and squares of these, d = 40..104.
  Hundreds of nodes on small-d, high-bit images: the node-count regime.
* ``analyze``     ``rootiso analyze`` in process, uniform tau = 32, d = 64:
  condition bracket, exact re-evaluation and Aberth oracle.  Eight
  d = 256 inputs, where the oracle is known not to converge on some, run
  once after the loop (see ``corpus.build_probe``).
* ``mc-steps``    ``run_steps_scaling`` with one worker, one trial per
  operation at d = 16, 64, 64, ``rel_tol = 0.5``, ``max_grid = 2^26``.

Each workload times 200 or more inputs per run, so that the seed moves
its figures little.  At d = 256 and above a run of 15-20 s holds only a
few dozen inputs whose costs differ by up to 10x; those inputs are left
out of the timed mixes.

Every output is checked after the timed loop with exact arithmetic that
shares no code with ``rootiso`` (``check.py``).  An operation is ok, wrong
(it fails its check), an error (it raised, or the CLI reported a usage
error) or declined (the CLI exited with code 2, its documented answer to
a computation it could not finish).  ``failed`` counts errors and wrong
outputs; ``correct`` is false when any output is wrong.

Times are reported at a fixed reference speed (``speed.py``).  Other
tenants of a shared host slow CPU-bound Python by up to 2x for seconds
at a time, in thread CPU time as much as in wall time.  So a fixed
big-integer kernel, independent of ``rootiso``, is timed between every
two operations, and each operation's wall time is scaled by
``REF_KERNEL_S`` over the mean of the kernel times just before and just
after it.  A program that does less work reads faster; a host that is
slower for a while does not.  The raw wall-clock figures are printed
beside the scaled ones.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  An
input's latency is the mean of its scaled visit times.

* ``setup_s``         the median of five imports, each in a fresh
                      interpreter (``import_probe.py``), plus the median
                      of five corpus builds with a warm-up operation each;
* ``polys_per_s``     inputs over the sum of their latencies, the slowest
                      2 % left out (``TRIM_FRAC``; the figure with all
                      inputs in is printed too);
* ``latency_p50_ms``, ``latency_tail_ms``  median and the workload's tail
                      percentile of the inputs' latencies;
* ``ok_frac``         inputs all of whose visits were ok, over all inputs,
                      probe included (``fail_frac`` = 1 - ``ok_frac`` is
                      printed too).

``peak_rss_mb`` is printed but not gated: on ``analyze`` and ``mc-steps``
the largest active set of a single bracket sets it, and it moves by half
from one seed to the next.

With ``--trace 1`` a fixed prefix of the corpus, plus the probe, runs three
times: untraced, traced, traced again.  The last line holds the
per-layer metrics of the first traced pass; the work counters of the two
traced passes must match exactly.  Spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import os

# pin the BLAS pools before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BASELINE = os.path.join(HERE, "baseline.json")


@dataclass(frozen=True)
class Workload:
    slots: int  # operations per round
    rounds: int  # rounds in the corpus; the loop cycles through them
    tail_pct: int  # percentile reported as latency_tail_ms
    trace_rounds: int  # rounds in the fixed prefix of a traced run


# A pass over the corpus takes 8-14 s at reference speed, and 1.7 times
# that on a busy host, so a 15 s run visits every input once or twice
# (the loop always ends a pass).  Each tail percentile leaves at least
# ten inputs beyond it.  ``mc-steps`` trial costs have a power-law tail:
# about one d = 64 trial in a hundred takes 10-200 times the median, and a
# single one can take a quarter of a pass.  From one seed to the next its
# p90 moved by 0.09-0.14 of the median (in a bootstrap over ten seeds'
# inputs) and its p80 by 0.04, so it reports p80.
WORKLOADS = {
    "iso-random": Workload(slots=1, rounds=240, tail_pct=90, trace_rounds=16),
    "iso-cluster": Workload(slots=5, rounds=40, tail_pct=90, trace_rounds=4),
    "analyze": Workload(slots=1, rounds=240, tail_pct=90, trace_rounds=16),
    "mc-steps": Workload(slots=3, rounds=250, tail_pct=80, trace_rounds=10),
}

# polys_per_s leaves out this share of the inputs, the slowest.  With all
# inputs in, the few heaviest mc-steps trials set the figure, and it moved
# by 0.15 of its median from seed to seed; without the slowest 2 %, by 0.05.
TRIM_FRAC = 0.02

# imports and corpus builds timed per run; setup_s adds their medians
SETUP_REPEATS = 5

# the outputs of the first loop operations and of the probe feed the
# byte-identity digest
DIGEST_OPS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "polys_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
}

SPAN_NAMES = (
    "polynomial.taylor_shift",
    "polynomial.unit_rescale",
    "polynomial.square_free_part",
    "polynomial.unit_variations",
    "polynomial.variations_in_interval",
    "polynomial.evaluate_dyadic",
    "polynomial.homothety",
    "solver.isolate_unit",
    "solver.isolate_all",
    "condition.global_condition_bracket",
    "condition.local_condition",
    "regions.numeric_roots",
    "regions.count_roots_in_cover",
    "regions.eps_real_separation",
    "regions.cover_root_count_bound",
    "models.sample",
    "experiments.measure_trial",
    "experiments.run_steps_scaling",
    "cli.main",
)


def per_layer_units() -> dict:
    """Name -> unit of every metric a traced run reports."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "polynomial.taylor_shift.bit_volume": "bit",
            "polynomial.square_free_part.degree_drop": "count",
            "solver.nodes": "count",
            "solver.max_depth": "count",
            "solver.roots_per_node": "ratio",
            "condition.global_condition_bracket.grid_points": "count",
            "condition.global_condition_bracket.unachieved_frac": "ratio",
            "regions.numeric_roots.fail_frac": "ratio",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def make_op(item, rootiso):
    """A zero-argument callable running one operation.

    It returns (outcome, message, output).  ``output`` is the serialized
    result the user would see.  ``outcome`` is "ok", "error" (the call
    raised, or the CLI exited with a usage error) or "declined": the CLI
    exited with code 2, its documented answer to a computation it could
    not finish, such as the oracle not converging.  Library functions are
    looked up on their modules at call time so that the tracer's
    rebinding takes effect.
    """
    if item.kind == "iso":
        poly = rootiso.polynomial.IntPolynomial

        def op():
            result = rootiso.solver.isolate_all(poly(item.coeffs))
            return "ok", "", json.dumps(result.to_json(), indent=2) + "\n"

    elif item.kind == "analyze":
        argv = ["analyze", "--coeffs", " ".join(map(str, item.coeffs))]

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rootiso.cli.main(argv)
            if code == 0:
                return "ok", "", out.getvalue()
            last = (err.getvalue().strip().splitlines() or [""])[-1]
            return ("declined" if code == 2 else "error"), f"exit code {code}: {last}", out.getvalue()

    else:
        models, experiments = rootiso.models, rootiso.experiments

        def op():
            report = experiments.run_steps_scaling(
                lambda d: models.uniform_model(d, 32),
                [item.degree],
                1,
                item.seed,
                workers=1,
                rel_tol=0.5,
                max_grid=1 << 26,
            )
            summary = json.dumps(report.json_summary(), indent=2, sort_keys=True)
            return "ok", "", report.csv_text() + summary + "\n"

    def guarded():
        try:
            return op()
        except Exception as exc:  # a failed operation is a measurement, not a crash
            return "error", f"{type(exc).__name__}: {exc}", ""

    return guarded


def check_output(item, output, check) -> str | None:
    if item.kind == "iso":
        return check.check_isolation(json.loads(output), item.sqfree, item.ref)
    if item.kind == "analyze":
        return check.check_analyze(output, item.coeffs)
    # the CSV header and rows come first, then the JSON summary
    return check.check_steps(json.loads(output[output.index("{") :]))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, pct: int) -> float:
    """Linear-interpolated percentile (statistics.quantiles, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

# A record is (op index, wall s, scaled s, outcome, message, output).


def run_op(ops, index, records, clock) -> None:
    (outcome, message, output), wall, scaled = clock.time(ops[index])
    records.append((index, wall, scaled, outcome, message, output))


def timed_loop(ops, spec: Workload, seconds: float, clock) -> list:
    """Closed loop over the corpus, round by round.

    Stops at the first round boundary after ``seconds`` once every input
    has run at least once.
    """
    records = []
    start = time.perf_counter()
    r = 0
    while r < spec.rounds or time.perf_counter() - start < seconds:
        base = (r % spec.rounds) * spec.slots
        for j in range(spec.slots):
            run_op(ops, base + j, records, clock)
        r += 1
    return records


def fixed_pass(ops, indices, clock, tracer=None):
    """Run ``indices`` once each; return the records and their scaled sum."""
    records = []
    for i in indices:
        if tracer is not None:
            tracer.op = i
        run_op(ops, i, records, clock)
    return records, sum(rec[2] for rec in records)


def digest(records) -> str:
    h = hashlib.sha256()
    for *_, outcome, _, output in records:
        h.update(f"{outcome}\n".encode())
        h.update(output.encode())
    return h.hexdigest()


def recorded_digest(workload: str, seed: int):
    try:
        with open(BASELINE) as fh:
            return json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def print_digest(args, records) -> None:
    value = digest(records)
    expected = recorded_digest(args.workload, args.seed)
    if expected is None:
        verdict = "UNRECORDED"
    else:
        verdict = "PASS" if expected == value else "FAIL"
    print(f"byte_identity {verdict} sha256 {value} ({len(records)} outputs)")


def tally(items, records, check) -> dict:
    """Check every ok output; count outcomes.  A wrong output is failed.

    An output is checked once per input; a repeat visit with the same
    output reuses the verdict.  ``bad_inputs`` holds the inputs with a
    visit that was not ok.
    """
    counts = {"ok": 0, "declined": 0, "error": 0, "wrong": 0}
    verdicts = {}
    bad_inputs = set()
    for idx, _, _, outcome, message, output in records:
        if outcome == "ok":
            key = (idx, output)
            if key not in verdicts:
                verdicts[key] = check_output(items[idx], output, check)
            message = verdicts[key]
            if message is not None:
                outcome = "wrong"
        counts[outcome] += 1
        if outcome != "ok":
            bad_inputs.add(idx)
            if counts[outcome] <= 3:
                print(f"{outcome} op {idx} ({items[idx].label}): {message}")
    counts["failed"] = counts["error"] + counts["wrong"]
    counts["bad_inputs"] = bad_inputs
    return counts


def time_imports() -> list:
    """(wall s, scaled s) of one import of the package in each of
    ``SETUP_REPEATS`` fresh interpreters, run one after another."""
    cmd = [sys.executable, os.path.join(HERE, "import_probe.py"), SRC]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "rootiso", "__init__.py")):
        print(f"error: no rootiso package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from import_probe import import_package
    from speed import Clock

    clock = Clock()
    import_times = time_imports()
    numpy, rootiso = import_package(SRC)
    if not os.path.abspath(rootiso.__file__).startswith(SRC + os.sep):
        print(f"error: rootiso imported from {rootiso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import check
    import corpus

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"env nproc {os.cpu_count()} python {sys.version.split()[0]} numpy {numpy.__version__}"
        f" blas_threads {os.environ['OPENBLAS_NUM_THREADS']}"
    )

    def build():
        items = corpus.build(args.workload, args.seed, spec.rounds)
        items += corpus.build_probe(args.workload, args.seed)
        ops = [make_op(item, rootiso) for item in items]
        make_op(corpus.warmup_item(args.workload, args.seed), rootiso)()
        return items, ops

    setup_wall, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        (items, ops), wall, scaled = clock.time(build)
        setup_wall.append(wall)
        setup_times.append(scaled)
    import_wall = statistics.median(wall for wall, _ in import_times)
    import_s = statistics.median(scaled for _, scaled in import_times)
    setup_s = import_s + statistics.median(setup_times)
    probe = range(spec.rounds * spec.slots, len(items))

    if args.trace:
        return traced_run(args, spec, items, ops, probe, check, corpus, clock)

    loop_start = time.perf_counter()
    records = timed_loop(ops, spec, args.seconds, clock)
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_records, _ = fixed_pass(ops, probe, clock)

    items = corpus.attach_references(items)
    counts = tally(items, records + probe_records, check)
    attempted = len(records) + len(probe_records)

    visits, walls = {}, {}
    for idx, wall, scaled, *_ in records:
        visits.setdefault(idx, []).append(scaled)
        walls.setdefault(idx, []).append(wall)
    latencies = [statistics.fmean(v) for v in visits.values()]
    wall_latencies = [statistics.fmean(v) for v in walls.values()]
    kept = sorted(latencies)[: len(latencies) - int(TRIM_FRAC * len(latencies))]
    tail = percentile(latencies, spec.tail_pct)
    beyond = sum(1 for t in latencies if t > tail)
    inputs = len(latencies) + len(probe_records)
    metrics = {
        "setup_s": setup_s,
        "polys_per_s": len(kept) / sum(kept),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "ok_frac": 1.0 - len(counts["bad_inputs"]) / inputs,
    }
    wall_p50 = 1000.0 * statistics.median(wall_latencies)
    wall_tail = 1000.0 * percentile(wall_latencies, spec.tail_pct)
    print(
        f"setup_s {fmt(setup_s)} s (median of {len(import_times)} imports, {import_s:.3f} s,"
        f" + median of {len(setup_times)} builds;"
        f" wall {import_wall + statistics.median(setup_wall):.3f} s)"
    )
    print(
        f"loop {len(records)} ops in {loop_s:.1f} s over {len(latencies)} inputs, each run at"
        f" least once; an input's latency is the mean of its visits"
    )
    print(
        f"polys_per_s {fmt(metrics['polys_per_s'])} 1/s (slowest {len(latencies) - len(kept)} of"
        f" {len(latencies)} inputs left out; all inputs {len(latencies) / sum(latencies):.4g},"
        f" wall {len(walls) / sum(wall_latencies):.4g})"
    )
    print(f"latency_p50_ms {fmt(metrics['latency_p50_ms'])} ms (n {len(latencies)}; wall {wall_p50:.4g})")
    print(
        f"latency_tail_ms {fmt(metrics['latency_tail_ms'])} ms "
        f"(p{spec.tail_pct}, n {len(latencies)}, {beyond} beyond; wall {wall_tail:.4g})"
    )
    if probe_records:
        probe_ms = 1000.0 * statistics.median(rec[2] for rec in probe_records)
        print(f"probe {len(probe_records)} ops after the loop, median {probe_ms:.1f} ms")
    not_ok = len(counts["bad_inputs"])
    print(
        f"fail_frac {fmt(not_ok / inputs)} ({not_ok}/{inputs} inputs; over {attempted} ops:"
        f" {counts['declined']} declined, {counts['error']} errors, {counts['wrong']} wrong outputs)"
    )
    print(f"ok_frac {fmt(metrics['ok_frac'])} ratio")
    print(f"peak_rss_mb {fmt(peak_rss_mb)} MB (reported, not gated)")
    print_digest(args, records[:DIGEST_OPS] + probe_records)

    result = {
        "correct": counts["wrong"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, spec, items, ops, probe, check, corpus, clock) -> int:
    from tracer import Tracer

    indices = list(range(spec.trace_rounds * spec.slots)) + list(probe)
    plain, plain_s = fixed_pass(ops, indices, clock)
    tracer = Tracer()
    tracer.install()
    try:
        first, traced_s = fixed_pass(ops, indices, clock, tracer)
        counts = tracer.deterministic_counts()
        metrics = layer_metrics(tracer, traced_s / plain_s - 1.0)
        os.makedirs(corpus.WORK_DIR, exist_ok=True)
        spans_path = os.path.join(corpus.WORK_DIR, f"spans-{args.workload}-{args.seed}.csv")
        tracer.write_spans(spans_path)
        span_count = len(tracer.spans)
        tracer.reset()
        second, _ = fixed_pass(ops, indices, clock, tracer)
        repeat = tracer.deterministic_counts()
    finally:
        tracer.uninstall()

    items = corpus.attach_references(items)
    records = plain + first + second
    outcomes = tally(items, records, check)
    same_outputs = [r[3:] for r in plain] == [r[3:] for r in first] == [r[3:] for r in second]
    counters_repeat = counts == repeat
    if not counters_repeat:
        diff = sorted(k for k in set(counts) | set(repeat) if counts.get(k) != repeat.get(k))
        print(f"counters differ between traced passes: {', '.join(diff)}")
    if not same_outputs:
        print("outputs differ between the untraced and traced passes")

    units = per_layer_units()
    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {units[name]}")
    print(f"trace passes {len(indices)} ops each; {span_count} spans written to {spans_path}")
    print(f"counters_repeat {'PASS' if counters_repeat else 'FAIL'}")

    result = {
        "correct": outcomes["wrong"] == 0 and counters_repeat and same_outputs,
        "attempted": len(records),
        "failed": outcomes["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, overhead_frac: float) -> dict:
    c = tracer.counters
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    brackets = tracer.calls.get("condition.global_condition_bracket", 0)
    oracle = tracer.calls.get("regions.numeric_roots", 0)
    out.update(
        {
            "polynomial.taylor_shift.bit_volume": c["polynomial.taylor_shift.bit_volume"],
            "polynomial.square_free_part.degree_drop": c["polynomial.square_free_part.degree_drop"],
            "solver.nodes": c["solver.nodes"],
            "solver.max_depth": c["solver.max_depth"],
            "solver.roots_per_node": ratio(c["solver.useful_nodes"], c["solver.nodes"]),
            "condition.global_condition_bracket.grid_points": c[
                "condition.global_condition_bracket.grid_evals"
            ]
            // 2,
            "condition.global_condition_bracket.unachieved_frac": ratio(
                c["condition.global_condition_bracket.unachieved"], brackets
            ),
            "regions.numeric_roots.fail_frac": ratio(
                tracer.errors.get("regions.numeric_roots", 0), oracle
            ),
            "trace.overhead_frac": overhead_frac,
        }
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
