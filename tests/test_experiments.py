
import numpy as np
import pytest

from rootiso.experiments import (
    CSV_COLUMNS,
    MeasureOptions,
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
        lambda d: uniform_model(d, 16), [4, 8], trials=1, seed=5, with_condition=False
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


def test_csv_header_fixed():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1, with_condition=False
    )
    lines = report.csv_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "trial_index,d,model,node_count,depth,max_width,"
        "cond_lower,cond_upper,rho_bound,rho_count_min,rho_count_max"
    )
    assert len(lines) == 3


def test_timing_excluded_from_serializations():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1, with_condition=False
    )
    assert report.timing["total_seconds"] > 0
    assert "wall" not in report.csv_text()
    assert "timing" not in report.json_summary()
    assert "wall_time" not in str(report.json_summary())


def test_aggregates_recomputable_from_rows():
    report = run_steps_scaling(
        lambda d: uniform_model(d, 16), [8], trials=25, seed=3, with_condition=False
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
    # so a trial runs the square-free certificate once and counts as
    # count_roots_in_cover does
    import rootiso.polynomial as polynomial

    calls = []
    certify = polynomial._coprime_with_derivative_mod_p

    def counting_certify(f):
        calls.append(f.degree)
        return certify(f)

    monkeypatch.setattr(polynomial, "_coprime_with_derivative_mod_p", counting_certify)
    model = uniform_model(16, 32)
    for index in range(5):
        calls.clear()
        row = measure_trial(model, 3, index, MeasureOptions(with_rho=True))
        assert calls == [16]
        counts = count_roots_in_cover(model.sample(3, index))
        assert (row.rho_count_min, row.rho_count_max) == (counts.min, counts.max)


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
        lambda d: uniform_model(d, 8), [4], trials=2, seed=1, with_condition=False
    )
    paths = report.write(tmp_path, fmt="both")
    assert len(paths) == 2
    csv_path = next(p for p in paths if p.endswith(".csv"))
    with open(csv_path) as fh:
        assert fh.read() == report.csv_text()


def test_infinity_serialized_as_string():
    report = run_cond_tail(
        uniform_model(8, 16), 5, [4.0], seed=2, max_grid=1 << 8
    )
    import json

    json.dumps(report.json_summary(), allow_nan=False)  # must not raise
