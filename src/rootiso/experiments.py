"""Seeded Monte Carlo harness for the solver and its analysis quantities.

Each trial samples one polynomial, isolates its real roots in (-1, 1),
and optionally measures a condition bracket and the near-interval root
counts.  Trials are pure functions of (seed, trial index), so runs are
reproducible bit for bit and may fan out over worker processes; rows are
always emitted sorted by trial index.

Wall-clock time is recorded per trial but kept out of the CSV rows and
the JSON summary, which are required to be byte-identical across runs;
timing statistics live on the in-memory report only.

The tail experiments compare empirical survival functions against the
one-sided theoretical curves (global condition: min(1, 32 d^4 e^{2u} / t);
local condition at a point: min(1, 16 d^3 e^{2u} / t^2); near-interval
root count: min(1, 44 d^2 (2 ceil(lg d) + 1) e^u e^{-t/(2 ceil(lg d)+1)})).
Only the upper-bound direction is asserted; tightness is reported, never
required.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import _json
from .condition import global_condition_bracket, local_condition
from .dyadic import Dyadic
from .models import RandomModel
from .regions import _square_free_roots, cover_root_count_bound, disk_cover, roots_in_cover
from .solver import isolate_unit

CSV_COLUMNS = (
    "trial_index",
    "d",
    "model",
    "node_count",
    "depth",
    "max_width",
    "cond_lower",
    "cond_upper",
    "rho_bound",
    "rho_count_min",
    "rho_count_max",
)


@dataclass
class TrialRecord:
    """Measurements for one sampled polynomial."""

    trial_index: int
    d: int
    model: str
    node_count: int
    depth: int
    max_width: int
    cond_lower: float | None = None
    cond_upper: float | None = None
    rho_bound: float | None = None
    rho_count_min: int | None = None
    rho_count_max: int | None = None
    wall_time: float = 0.0

    def csv_cells(self) -> list[str]:
        return [_fmt(getattr(self, col)) for col in CSV_COLUMNS]


@dataclass(frozen=True)
class MeasureOptions:
    """Which per-trial quantities to compute, and their budgets."""

    with_condition: bool = False
    with_rho: bool = False
    rel_tol: float = 0.5
    max_grid: int = 1 << 20
    local_point: tuple[int, int] | None = None  # (num, exp) of a dyadic in [-1, 1]


@dataclass
class ExperimentReport:
    """Rows plus derived aggregates for one experiment run.

    ``aggregates`` and ``extras`` are pure functions of (config, seed);
    ``timing`` is not and is therefore excluded from every serialization.
    Both ``aggregates`` and ``timing`` are derived from the rows.
    """

    kind: str
    config: dict
    rows: list[TrialRecord]
    extras: dict = field(default_factory=dict)

    @property
    def aggregates(self) -> dict:
        """Per-degree column statistics, keyed by str(d) in ascending d."""
        by_d: dict = {}
        for row in self.rows:
            by_d.setdefault(row.d, []).append(row)
        return {str(d): _column_stats(group) for d, group in sorted(by_d.items())}

    @property
    def timing(self) -> dict:
        times = [r.wall_time for r in self.rows]
        if not times:
            return {}
        return {
            "total_seconds": float(sum(times)),
            "mean_seconds": float(sum(times) / len(times)),
            "max_seconds": float(max(times)),
        }

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(row.csv_cells() for row in self.rows)
        return out.getvalue()

    def json_summary(self) -> dict:
        return _json.strict(
            {
                "kind": self.kind,
                "config": self.config,
                "aggregates": self.aggregates,
                "extras": self.extras,
            }
        )

    def write(self, out_dir, fmt: str = "csv"):
        import os

        os.makedirs(out_dir, exist_ok=True)
        paths = []
        if fmt in ("csv", "both"):
            path = os.path.join(out_dir, f"{self.kind}.csv")
            with open(path, "w") as fh:
                fh.write(self.csv_text())
            paths.append(path)
        if fmt in ("json", "both"):
            path = os.path.join(out_dir, f"{self.kind}.json")
            with open(path, "w") as fh:
                fh.write(_json.dumps(self.json_summary(), sort_keys=True))
            paths.append(path)
        return paths


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def measure_trial(model: RandomModel, seed: int, index: int, opt: MeasureOptions) -> TrialRecord:
    f = model.sample(seed, index)
    started = time.perf_counter()
    result = isolate_unit(f)
    trace = result.trace
    row = TrialRecord(
        trial_index=index,
        d=model.degree,
        model=model.describe(),
        node_count=trace.node_count,
        depth=trace.depth,
        max_width=trace.max_width(),
    )
    if opt.with_condition:
        if opt.local_point is not None:
            # the local value at a fixed point is itself a lower bound
            # on the global maximum
            row.cond_lower = local_condition(f, Dyadic(*opt.local_point))
        else:
            bracket = global_condition_bracket(f, rel_tol=opt.rel_tol, max_grid=opt.max_grid)
            row.cond_lower = bracket.lower
            row.cond_upper = bracket.upper
    if opt.with_rho:
        row.rho_bound = cover_root_count_bound(f)
        # count_roots_in_cover(f), on the square-free part isolate_unit
        # already computed
        cover = disk_cover(f.degree)
        counts = roots_in_cover(_square_free_roots(trace.square_free), cover)
        row.rho_count_min = counts.min
        row.rho_count_max = counts.max
    row.wall_time = time.perf_counter() - started
    return row


def _collect(model, trials, seed, opt, workers) -> list[TrialRecord]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    args = (repeat(model), repeat(seed), range(trials), repeat(opt))
    if workers <= 1:
        return list(map(measure_trial, *args))
    # imported here: ``multiprocessing`` is not needed by a one-worker run
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_measure_by_name, *args, chunksize=max(1, trials // (8 * workers))))


def _measure_by_name(model, seed, index, opt) -> TrialRecord:
    """``measure_trial``, looked up by its global name in the worker.  The
    pool pickles this function by name, which still works where
    ``measure_trial`` has been rebound to a wrapper (the benchmark's tracer
    does so)."""
    return measure_trial(model, seed, index, opt)


def _subseed(seed: int, d: int) -> int:
    # distinct streams per degree so coefficient draws never coincide
    # across the d-sweep
    return (seed * 1_000_003 + d) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# Column statistics
# ---------------------------------------------------------------------------


def _column_stats(rows) -> dict:
    """Statistics of each ``_AGG_COLUMNS`` column over ``rows``: count,
    mean, median, min and max, then the 90th and 99th percentiles when
    every value is finite, or else the finite count with an infinite
    median.  A column is present (not None) in every row or in none.  The
    present ones are stacked into one array, one row per column: the mean
    is one ``np.mean`` over it (numpy's pairwise sum), and the rest comes
    from one sort of each column.  Row values are never NaN."""
    n = len(rows)
    stats = {col: {"count": 0} for col in _AGG_COLUMNS}
    columns = {col: [getattr(r, col) for r in rows] for col in _AGG_COLUMNS}
    present = [col for col, column in columns.items() if column[0] is not None]
    assert all(column.count(None) == (0 if col in present else n) for col, column in columns.items())
    if not present:
        return stats
    values = np.array([columns[col] for col in present], dtype=float)
    for col, ordered, mean in zip(present, np.sort(values, axis=1).tolist(), np.mean(values, axis=1).tolist()):
        finite = bisect_left(ordered, math.inf) - bisect_right(ordered, -math.inf)
        if finite == n:
            median = _quantile(ordered, 0.5)
            tail = {"p90": _quantile(ordered, 0.9), "p99": _quantile(ordered, 0.99)}
        else:
            median, tail = math.inf, {"finite_count": finite}
        stats[col] = {"count": n, "mean": mean, "median": median, "min": ordered[0], "max": ordered[-1], **tail}
    return stats


def _quantile(ordered: list, q: float) -> float:
    """The q-quantile of the sorted finite floats ``ordered`` by numpy's
    "linear" method (type 7 of Hyndman and Fan, 1996), in numpy's own
    arithmetic, so that it equals ``np.quantile(ordered, q)`` bit for bit.
    The virtual index v = (n - 1) q has integer part i and fractional part
    t; the quantile is a + (b - a) t, or b - (b - a)(1 - t) when t >= 1/2,
    for a and b the values at i and i + 1.  An index v >= n - 1 takes the
    last value."""
    v = (len(ordered) - 1) * q
    i = math.floor(v)
    if i >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[i], ordered[i + 1]
    t = v - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


_AGG_COLUMNS = (
    "node_count",
    "depth",
    "max_width",
    "cond_lower",
    "cond_upper",
    "rho_bound",
    "rho_count_max",
)


def _survival(values, t_grid, theoretical) -> tuple[list[dict], bool]:
    """Empirical P(value >= t) beside ``theoretical(t)`` at each t of the grid.

    The check is one-sided: it passes when no empirical point exceeds its
    curve value.
    """
    values = np.array(values, dtype=float)
    curve = [
        {"t": t, "empirical": float(np.mean(values >= t)), "theoretical": theoretical(t)}
        for t in t_grid
    ]
    return curve, all(p["empirical"] <= p["theoretical"] for p in curve)


def _config(model: RandomModel, trials: int, seed: int, **extra) -> dict:
    """Config keys shared by the single-model experiments."""
    return {"model": model.describe(), "trials": trials, "seed": seed, **extra}


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_steps_scaling(
    model_for,
    d_list,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    rel_tol: float = 0.5,
    max_grid: int = 1 << 22,
) -> ExperimentReport:
    """Subdivision-step counts across degrees.

    ``model_for`` maps a degree to its model.  Reports per-degree step and
    depth statistics next to a (lg d)^3 reference column; each trial's
    certified condition upper bound feeds the depth check
    ceil(lg(12 d U)) + 2.
    """
    opt = MeasureOptions(with_condition=True, rel_tol=rel_tol, max_grid=max_grid)
    rows = []
    models = {}
    for d in d_list:
        model = model_for(d)
        models[d] = model.describe()
        rows.extend(_collect(model, trials, _subseed(seed, d), opt, workers))

    per_d = {}
    for d in d_list:
        group = [r for r in rows if r.d == d]
        mean_nodes = float(np.mean([r.node_count for r in group]))
        ref = math.log2(d) ** 3 if d > 1 else 1.0
        entry = {
            "mean_node_count": mean_nodes,
            "lg3_d": ref,
            "node_count_over_lg3_d": mean_nodes / ref,
            "max_depth": max(r.depth for r in group),
        }
        checks = [(r.depth, _depth_allowance(r.d, r.cond_upper)) for r in group]
        finite = [(dep, bound) for dep, bound in checks if bound is not None]
        entry["depth_bound_trials"] = len(finite)
        entry["depth_bound_ok"] = all(dep <= bound for dep, bound in finite)
        per_d[str(d)] = entry

    return ExperimentReport(
        kind="steps_scaling",
        config={
            "models": {str(d): desc for d, desc in models.items()},
            "d_list": list(d_list),
            "trials": trials,
            "seed": seed,
            "with_condition": True,
        },
        rows=rows,
        extras={"per_d": per_d},
    )


def _depth_allowance(d: int, cond_upper: float) -> int | None:
    """ceil(lg(12 d U)) + 2, the certified cap on subdivision depth."""
    if not math.isfinite(cond_upper):
        return None
    return math.ceil(math.log2(12.0 * d * cond_upper)) + 2


def checked_t_grid(kind: str, model: RandomModel, t_grid=None) -> list[float]:
    """The tail thresholds ``t_grid`` of experiment ``kind`` on ``model``,
    as floats, or ValueError if one lies outside the kind's range.

    ``cond_tail`` takes (1, 2^(tau+1)] and ``cond_tail_local`` (1, 2^tau],
    for tau = ``model.tau_bound()``; ``rho_check`` takes (0, tau l], for
    l the number of disks of ``disk_cover(d)``.  ``cond_tail`` needs at
    least one threshold.  ``t_grid=None`` takes the kind's default grid:
    2^k for odd k <= min(lg L, 40) on the condition tails of limit L, and
    1, 2, ..., min(tau l, 40) on ``rho_check``.
    """
    tau = model.tau_bound()
    if kind == "rho_check":
        floor, limit = 0.0, float(tau * len(disk_cover(model.degree).centers))
        default = range(1, min(int(limit), 40) + 1)
    else:
        lg_limit = tau + (kind == "cond_tail")
        floor, limit = 1.0, 2.0**lg_limit
        default = [2**k for k in range(1, min(lg_limit, 40) + 1, 2)]
    t_grid = [float(t) for t in (default if t_grid is None else t_grid)]
    if (kind != "rho_check" and not t_grid) or any(not floor < t <= limit for t in t_grid):
        raise ValueError(f"t_grid must lie within ({floor:g}, {limit:g}], got {t_grid}")
    return t_grid


def run_cond_tail(
    model: RandomModel,
    trials: int,
    t_grid,
    seed: int,
    *,
    local_point: tuple[int, int] | None = None,
    workers: int = 1,
    rel_tol: float = 0.5,
    max_grid: int = 1 << 16,
) -> ExperimentReport:
    """Empirical condition-number survival versus the theoretical tail.

    Global variant: survival of the certified bracket lower bound against
    min(1, 32 d^4 e^{2u} / t).  Using the lower bound is conservative: if
    even an underestimate of the condition exceeds the curve, the bound
    genuinely fails.  With ``local_point`` the trial records the local
    condition at that dyadic point and the curve is min(1, 16 d^3 e^{2u}/t^2).

    Thresholds must lie in (1, L] with L = 2^(tau+1), or L = 2^tau for the
    local variant; ``t_grid=None`` takes 2^k for odd k <= min(lg L, 40)
    (``checked_t_grid``).
    """
    kind = "cond_tail" if local_point is None else "cond_tail_local"
    t_grid = checked_t_grid(kind, model, t_grid)
    opt = MeasureOptions(
        with_condition=True, rel_tol=rel_tol, max_grid=max_grid, local_point=local_point
    )
    rows = _collect(model, trials, seed, opt, workers)

    d = model.degree
    u = model.uniformity()

    def tail(t):
        if local_point is None:
            return min(1.0, 32.0 * d**4 * math.exp(2.0 * u) / t)
        return min(1.0, 16.0 * d**3 * math.exp(2.0 * u) / t**2)

    curve, ok = _survival([r.cond_lower for r in rows], t_grid, tail)

    return ExperimentReport(
        kind=kind,
        config=_config(
            model,
            trials,
            seed,
            t_grid=t_grid,
            local_point=list(local_point) if local_point else None,
            uniformity=u,
            uniformity_is_bound=model.uniformity_is_bound,
        ),
        rows=rows,
        extras={"curve": curve, "pass": ok},
    )


def run_rho_check(
    model: RandomModel,
    trials: int,
    seed: int,
    *,
    t_grid=None,
    workers: int = 1,
) -> ExperimentReport:
    """Near-interval root-count tail and moments.

    Compares the survival function of the counted roots (upper end of the
    ambiguity range) with the exponential tail curve, reports the fitted
    constants of the moment scale l (ln d + u) ln d, and checks that the
    evaluation-based per-trial bound dominates the count on average.

    Thresholds must lie in (0, tau l], for l = 2N + 1 the number of disks
    of ``disk_cover(d)``; ``t_grid=None`` takes 1, 2, ..., min(tau l, 40)
    (``checked_t_grid``).
    """
    d = model.degree
    u = model.uniformity()
    tau = model.tau_bound()
    if tau < 10.0 * math.log(math.e * d) + 2.0 * u:
        warnings.warn(
            "bitsize below 10 ln(e d) + 2u: moment-scale hypotheses do not apply",
            stacklevel=2,
        )
    lg_blocks = len(disk_cover(d).centers)  # the cover's disk count
    t_grid = checked_t_grid("rho_check", model, t_grid)

    rows = _collect(model, trials, seed, MeasureOptions(with_rho=True), workers)

    counts = np.array([r.rho_count_max for r in rows], dtype=float)
    bounds = np.array([r.rho_bound for r in rows], dtype=float)
    curve, ok = _survival(
        counts,
        t_grid,
        lambda t: min(1.0, 44.0 * d**2 * lg_blocks * math.exp(u) * math.exp(-t / lg_blocks)),
    )

    scale = math.log(math.e * d) * (math.log(math.e * d) + u)
    mean_count = float(np.mean(counts))
    second_moment = float(np.mean(counts**2))
    fitted = {
        "1": mean_count / scale,
        "2": math.sqrt(second_moment) / (2.0 * scale),
    }
    mean_bound = float(np.mean(bounds[np.isfinite(bounds)])) if np.isfinite(bounds).any() else math.inf

    return ExperimentReport(
        kind="rho_check",
        config=_config(
            model,
            trials,
            seed,
            t_grid=t_grid,
            uniformity=u,
            uniformity_is_bound=model.uniformity_is_bound,
        ),
        rows=rows,
        extras={
            "curve": curve,
            "pass": ok,
            "mean_count": mean_count,
            "second_moment": second_moment,
            "fitted_moment_constants": fitted,
            "mean_bound": mean_bound,
            "mean_count_below_mean_bound": mean_count <= mean_bound,
        },
    )


def run_instance_bound(
    model: RandomModel,
    trials: int,
    seed: int,
    *,
    constant: float = 64.0,
    workers: int = 1,
    rel_tol: float = 0.5,
    max_grid: int = 1 << 20,
) -> ExperimentReport:
    """Per-instance step count against its predicted budget.

    For each trial the ratio node_count / (max(1, rho)^2 * max(1, lg U)
    * lg^2 d) is recorded, with rho the counted near-interval roots and U
    the certified condition upper bound; the run passes when the 99th
    percentile stays below ``constant``.  Trials without a finite U are
    excluded from the distribution and reported.
    """
    opt = MeasureOptions(with_condition=True, with_rho=True, rel_tol=rel_tol, max_grid=max_grid)
    rows = _collect(model, trials, seed, opt, workers)

    d = model.degree
    lg2d = math.log2(d) ** 2 if d > 1 else 1.0
    ratios = []
    unbounded = 0
    for row in rows:
        if row.cond_upper is None or not math.isfinite(row.cond_upper):
            unbounded += 1
            continue
        budget = (
            max(1.0, float(row.rho_count_max)) ** 2
            * max(1.0, math.log2(row.cond_upper))
            * lg2d
        )
        ratios.append(row.node_count / budget)
    arr = np.array(ratios, dtype=float)
    p99 = _quantile(sorted(ratios), 0.99) if ratios else math.inf

    return ExperimentReport(
        kind="instance_bound",
        config=_config(model, trials, seed, constant=constant),
        rows=rows,
        extras={
            "ratio_mean": float(np.mean(arr)) if arr.size else math.inf,
            "ratio_p99": p99,
            "ratio_max": float(np.max(arr)) if arr.size else math.inf,
            "excluded_unbounded": unbounded,
            "constant": constant,
            "pass": p99 < constant,
        },
    )
