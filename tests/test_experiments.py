
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rootiso.experiments import (
    _AGG_COLUMNS,
    CSV_COLUMNS,
    ExperimentReport,
    MeasureOptions,
    TrialRecord,
    checked_t_grid,
    measure_trial,
    run_cond_tail,
    run_instance_bound,
    run_rho_check,
    run_steps_scaling,
)
from rootiso.models import uniform_model
from rootiso.regions import count_roots_in_cover


def test_row_count_structure():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 16), [4, 8], trials=1, seed=5
    )
    assert len(report.rows) == 2
    assert [r.d for r in report.rows] == [4, 8]


def test_csv_deterministic_across_runs_and_workers():
    kwargs = dict(trials=12, t_grid=[4.0, 64.0], seed=9, max_grid=1 << 12)
    a = run_cond_tail(uniform_model(8, 16), **kwargs)
    b = run_cond_tail(uniform_model(8, 16), **kwargs)
    c = run_cond_tail(uniform_model(8, 16), workers=3, **kwargs)
    assert a.csv_text() == b.csv_text() == c.csv_text()
    assert a.json_summary() == b.json_summary() == c.json_summary()
    # steps with brackets: one worker and two give equal rows, in trial
    # order within each degree
    one, two = (
        run_steps_scaling(lambda d: uniform_model(d, 16), [4, 8], trials=12, seed=9, workers=w, max_grid=1 << 12)
        for w in (1, 2)
    )
    assert [row.csv_cells() for row in one.rows] == [row.csv_cells() for row in two.rows]
    assert [(row.d, row.trial_index) for row in two.rows] == [(d, i) for d in (4, 8) for i in range(12)]
    assert all(row.cond_upper is not None for row in two.rows)
    assert one.json_summary() == two.json_summary()


def test_csv_header_fixed():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1
    )
    lines = report.csv_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "trial_index,d,model,node_count,depth,max_width,"
        "cond_lower,cond_upper,rho_bound,rho_count_min,rho_count_max"
    )
    assert len(lines) == 3


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_steps_scaling(lambda d: uniform_model(d, 8), [4, 8], trials=3, seed=1, max_grid=1 << 12),
        lambda: run_cond_tail(uniform_model(8, 16), 4, [4.0], seed=2, max_grid=1 << 12),
        lambda: run_cond_tail(uniform_model(8, 16), 4, [4.0], seed=2, local_point=(1, 2)),
        lambda: run_rho_check(uniform_model(8, 48), 4, seed=3),
        lambda: run_instance_bound(uniform_model(8, 16), 4, seed=4, max_grid=1 << 12),
    ],
    ids=["steps", "cond_tail", "cond_tail_local", "rho_check", "instance_bound"],
)
def test_csv_reads_back_one_field_per_column(run):
    # the model cell, uniform(d=8,tau=16), holds a comma: it is quoted, so
    # every row reads back with exactly the header's fields
    report = run()
    rows = list(csv.DictReader(io.StringIO(report.csv_text())))
    assert len(rows) == len(report.rows)
    for read, record in zip(rows, report.rows):
        assert list(read) == list(CSV_COLUMNS) and None not in read.values()
        assert read["model"] == record.model and "," in read["model"]
        assert read["cond_upper"] == ("" if record.cond_upper is None else repr(record.cond_upper))
        assert list(read.values()) == record.csv_cells()


def test_timing_excluded_from_serializations():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1
    )
    assert report.timing["total_seconds"] > 0
    assert "wall" not in report.csv_text()
    assert "timing" not in report.json_summary()
    assert "wall_time" not in str(report.json_summary())


def test_aggregates_recomputable_from_rows():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 16), [8], trials=25, seed=3
    )
    nodes = [r.node_count for r in report.rows]
    agg = report.aggregates["8"]["node_count"]
    assert agg["mean"] == float(np.mean(np.array(nodes, dtype=float)))
    assert agg["median"] == float(np.quantile(np.array(nodes, dtype=float), 0.5))
    assert agg["count"] == 25
    assert report.extras["per_d"]["8"]["mean_node_count"] == agg["mean"]


def test_cond_tail_degenerate_thresholds_pass_trivially():
    # curve value is 1 at small t, so the empirical cdf cannot exceed it
    report = run_cond_tail(uniform_model(8, 16), 20, [2.0, 8.0], seed=4, max_grid=1 << 12)
    for point in report.extras["curve"]:
        if point["theoretical"] >= 1.0:
            assert point["empirical"] <= point["theoretical"]
    assert report.extras["pass"]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_steps_scaling(lambda d: uniform_model(d, 16), [8], 0, seed=1),
        lambda: run_cond_tail(uniform_model(8, 16), 0, [4.0], seed=1),
        lambda: run_rho_check(uniform_model(8, 48), 0, seed=1),
        lambda: run_instance_bound(uniform_model(8, 16), 0, seed=1),
    ],
    ids=["steps", "cond_tail", "rho_check", "instance_bound"],
)
def test_trials_must_be_positive(run):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run()


def test_cond_tail_validates_grid():
    model = uniform_model(8, 16)
    with pytest.raises(ValueError):
        run_cond_tail(model, 5, [1.0], seed=1)  # t must exceed 1
    with pytest.raises(ValueError):
        run_cond_tail(model, 5, [2.0 ** 40], seed=1)  # above 2^(tau+1)


def test_cond_tail_local_variant():
    report = run_cond_tail(
        uniform_model(8, 16), 40, [4.0, 256.0], seed=6, local_point=(0, 0)
    )
    assert report.kind == "cond_tail_local"
    assert report.extras["pass"]
    assert all(r.cond_upper is None for r in report.rows)


def test_rho_check_outputs():
    report = run_rho_check(uniform_model(8, 48), 30, seed=7)
    assert report.extras["pass"]
    assert report.extras["mean_count_below_mean_bound"]
    assert set(report.extras["fitted_moment_constants"]) == {"1", "2"}
    assert all(r.rho_count_min <= r.rho_count_max for r in report.rows)


def test_rho_trial_computes_one_square_free_part(monkeypatch):
    # the cover count runs the oracle on isolate_unit's square-free part,
    # so a trial runs the square-free pre-test once, and no modular
    # Euclid, and counts as count_roots_in_cover does
    import rootiso.polynomial as polynomial

    calls = []
    certify = polynomial._coprime_with_derivative
    euclid = polynomial._gcd_with_derivative_mod_p

    def counting_certify(f):
        calls.append(f.degree)
        return certify(f)

    def counting_euclid(f, p):
        calls.append((f.degree, p))
        return euclid(f, p)

    monkeypatch.setattr(polynomial, "_coprime_with_derivative", counting_certify)
    monkeypatch.setattr(polynomial, "_gcd_with_derivative_mod_p", counting_euclid)
    model = uniform_model(16, 32)
    for index in range(5):
        calls.clear()
        row = measure_trial(model, 3, index, MeasureOptions(with_rho=True))
        assert calls == [16]
        counts = count_roots_in_cover(model.sample(3, index))
        assert (row.rho_count_min, row.rho_count_max) == (counts.min, counts.max)


def test_rho_check_threshold_range():
    # thresholds lie in (0, tau l], l = 2 ceil(lg d) + 1 = 7 at d = 8
    for t_grid in ([0.0, 3.0], [-5.0], [48.0 * 7 + 1]):
        with pytest.raises(ValueError, match="t_grid"):
            run_rho_check(uniform_model(8, 48), 2, seed=1, t_grid=t_grid)
    report = run_rho_check(uniform_model(8, 48), 2, seed=1, t_grid=[0.5, 48.0 * 7])
    assert [row["t"] for row in report.extras["curve"]] == [0.5, 336.0]


def test_default_t_grids():
    # t_grid=None takes each kind's default, built from the limit that the
    # thresholds are checked against: 2^(tau+1), 2^tau and tau l
    def odd_powers(top):
        return [float(2**k) for k in range(1, top + 1, 2)]

    assert checked_t_grid("cond_tail", uniform_model(8, 16)) == odd_powers(17)
    assert checked_t_grid("cond_tail_local", uniform_model(8, 16)) == odd_powers(16)
    assert checked_t_grid("cond_tail", uniform_model(8, 48)) == odd_powers(40)
    # tau l = 2 * 7 at d = 8, below the cap of 40
    assert checked_t_grid("rho_check", uniform_model(8, 2)) == [float(t) for t in range(1, 2 * 7 + 1)]
    assert checked_t_grid("rho_check", uniform_model(8, 48)) == [float(t) for t in range(1, 41)]
    assert checked_t_grid("cond_tail_local", uniform_model(8, 1)) == [2.0]
    # a given grid is checked, not replaced: cond_tail needs a threshold
    with pytest.raises(ValueError, match="t_grid"):
        checked_t_grid("cond_tail", uniform_model(8, 16), [])


def test_rho_check_warns_on_small_bitsize():
    with pytest.warns(UserWarning, match="bitsize"):
        run_rho_check(uniform_model(8, 4), 5, seed=8)


def test_instance_bound_report():
    report = run_instance_bound(uniform_model(8, 16), 30, seed=9, max_grid=1 << 14)
    assert report.extras["constant"] == 64.0
    assert report.extras["ratio_p99"] >= 0.0
    assert report.extras["excluded_unbounded"] + 30 - report.extras["excluded_unbounded"] == 30


def test_trial_measure_options():
    row = measure_trial(uniform_model(8, 16), 1, 0, MeasureOptions())
    assert row.cond_lower is None and row.rho_bound is None
    assert row.node_count >= 1
    row2 = measure_trial(
        uniform_model(8, 16), 1, 0, MeasureOptions(with_condition=True, with_rho=True)
    )
    assert row2.cond_lower is not None and row2.rho_bound is not None
    assert row2.node_count == row.node_count


def test_write_outputs(tmp_path):
    report = run_steps_scaling(
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1
    )
    paths = report.write(tmp_path, fmt="both")
    assert len(paths) == 2
    csv_path = next(p for p in paths if p.endswith(".csv"))
    with open(csv_path) as fh:
        assert fh.read() == report.csv_text()


def test_infinity_serialized_as_string(strict_loads):
    report = run_cond_tail(
        uniform_model(8, 16), 5, [4.0], seed=2, max_grid=1 << 8
    )
    import json

    json.dumps(report.json_summary(), allow_nan=False)  # must not raise
    # that run is finite throughout; this one samples a double root in
    # [-1, 1] (trial 4), whose infinite condition reads null
    singular = run_cond_tail(uniform_model(2, 1), 5, [4.0], seed=2, max_grid=1 << 8)
    assert [row.trial_index for row in singular.rows if row.cond_lower == math.inf] == [4]
    summary = singular.json_summary()
    assert strict_loads(json.dumps(summary, allow_nan=False)) == summary
    stats = summary["aggregates"]["2"]["cond_lower"]
    assert stats["max"] is None and stats["median"] is None and stats["finite_count"] == 4


def _reference_stats(values) -> dict:
    """One column's statistics, computed column by column."""
    vals = [v for v in values if v is not None]
    if not vals:
        return {"count": 0}
    arr = np.array(vals, dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == arr.size:
        median, p90, p99 = np.quantile(arr, (0.5, 0.9, 0.99)).tolist()
        tail = {"p90": p90, "p99": p99}
    else:
        median, tail = float("inf"), {"finite_count": int(finite.size)}
    return {
        "count": len(vals),
        "mean": float(np.mean(arr)),
        "median": median,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        **tail,
    }


def test_aggregates_match_column_by_column_reference():
    # the one-sort aggregates are bit for bit the per-column ones, with
    # integer, float, infinite, absent, tied and constant columns; sizes
    # run from 1 row to past numpy's pairwise-sum block of 128 values, and
    # at n = 101 the 99th percentile falls on a row exactly
    rng = np.random.default_rng(48)
    sizes = [int(rng.integers(1, 60)) for _ in range(300)]
    sizes += [101, 101, 101, 127, 128, 129, 256, 257, 400] + [int(rng.integers(60, 401)) for _ in range(30)]
    for trial, n in enumerate(sizes):
        absent = {col for col in _AGG_COLUMNS if rng.random() < 0.3}
        mode = (trial // 3) % 3  # every value drawn, three values per column, or one

        def column(draw):
            if mode == 0:
                return [draw() for _ in range(n)]
            levels = [draw() for _ in range(3 if mode == 1 else 1)]
            return [levels[int(rng.integers(0, len(levels)))] for _ in range(n)]

        columns = {
            "node_count": column(lambda: int(rng.integers(1, 500))),
            "depth": column(lambda: int(rng.integers(1, 20))),
            "max_width": column(lambda: int(rng.integers(1, 9))),
            "cond_lower": column(lambda: float(rng.lognormal(3.0, 2.0))),
            "cond_upper": column(
                lambda: math.inf if rng.random() < 0.1 * (trial % 3) else float(rng.lognormal(4.0, 2.0))
            ),
            "rho_bound": column(lambda: math.inf if rng.random() < 0.05 else float(rng.uniform(0.0, 100.0))),
            "rho_count_max": column(lambda: int(rng.integers(0, 9))),
        }
        rows = []
        for i in range(n):
            row = TrialRecord(i, 8, "m", 0, 0, 0)
            for col, values in columns.items():
                setattr(row, col, None if col in absent else values[i])
            rows.append(row)
        report = ExperimentReport("steps_scaling", {}, rows)
        expect = {"8": {col: _reference_stats([getattr(r, col) for r in rows]) for col in _AGG_COLUMNS}}
        assert json.dumps(report.aggregates) == json.dumps(expect)


def test_import_leaves_multiprocessing_unloaded():
    # a one-worker run never needs the process pool, so importing the
    # package does not load it
    code = "import sys, rootiso, rootiso.cli, rootiso.experiments; print('multiprocessing' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False", out.stderr
