"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random suites are
fixed-seed, so every run exercises identical polynomials.
"""

import math
import random
import time

import pytest

from conftest import make_poly
from rootiso.condition import global_condition_bracket, local_condition, separation_epsilon
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.experiments import (
    run_cond_tail,
    run_instance_bound,
    run_rho_check,
    run_steps_scaling,
)
from rootiso.models import uniform_model
from rootiso.polynomial import square_free_part, variations_in_interval
from rootiso.regions import (
    count_roots_in_cover,
    cover_root_count_bound,
    distance_to_interval,
    numeric_roots,
    obreshkoff_discs,
)
from rootiso.solver import isolate_unit

SEED = 20250810
SUITE_DEGREES = (8, 16, 32, 64)
SUITE_PER_DEGREE = 250  # 1000 polynomials total
ORACLE_TOL = 1e-10
IMAG_CUT = 1e-10


@pytest.fixture(scope="session")
def suite():
    polys = []
    for d in SUITE_DEGREES:
        model = uniform_model(d, 32)
        for i in range(SUITE_PER_DEGREE):
            polys.append(model.sample(SEED, i))
    return polys


@pytest.fixture(scope="session")
def suite_unit_results(suite):
    started = time.perf_counter()
    results = [isolate_unit(f) for f in suite]
    return results, time.perf_counter() - started


@pytest.fixture(scope="session")
def suite_oracle(suite):
    return [numeric_roots(f) for f in suite]


def test_01_isolation_correctness(suite, suite_unit_results, suite_oracle):
    started = time.perf_counter()
    results, isolate_elapsed = suite_unit_results
    checked_roots = 0
    for f, res, oracle in zip(suite, results, suite_oracle):
        real_in_unit = sorted(
            z.real
            for z in oracle.roots
            if abs(z.imag) <= IMAG_CUT and -1.0 < z.real < 1.0
        )
        assert res.root_count() == len(real_in_unit), f.to_text()
        for x in real_in_unit:
            hits = sum(
                1
                for iv in res.intervals
                if float(iv.interval.lo) < x < float(iv.interval.hi)
            )
            hits += sum(1 for r in res.exact_roots if abs(float(r.value) - x) <= ORACLE_TOL)
            assert hits == 1, (f.to_text(), x)
            checked_roots += 1
    elapsed = time.perf_counter() - started + isolate_elapsed
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 (isolation correctness): PASS — {len(suite)} polynomials, "
        f"{checked_roots} roots matched, {elapsed:.1f}s"
    )


def test_02_descartes_parity_and_bound():
    started = time.perf_counter()
    rng = random.Random(SEED + 2)
    done = 0
    while done < 500:
        f = make_poly(rng, rng.randint(1, 8), 8)
        if f.coefficient(0) == 0 or square_free_part(f).degree != f.degree:
            continue
        positive = sum(
            1
            for z in numeric_roots(f).roots
            if abs(z.imag) <= IMAG_CUT and z.real > IMAG_CUT
        )
        v = f.sign_variations()
        assert v >= positive, f.to_text()
        assert (v - positive) % 2 == 0, f.to_text()
        done += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (sign-variation parity/bound): PASS — 500 polynomials, {elapsed:.1f}s")


def test_03_subadditivity_on_traces(suite, suite_unit_results):
    results, _ = suite_unit_results
    internal_nodes = 0
    for res in results[:100]:
        vars_at = {n.interval: n.variations for n in res.trace.var_per_node}
        for interval, v in vars_at.items():
            if v < 2:
                continue
            left, right = interval.split()
            assert vars_at[left] + vars_at[right] <= v
            internal_nodes += 1
    print(
        f"\nACCEPTANCE 3 (child variation sums): PASS — "
        f"{internal_nodes} internal nodes over 100 traced runs"
    )


def test_04_lipschitz_property():
    rng = random.Random(SEED + 4)
    for _ in range(10_000):
        f = make_poly(rng, rng.randint(1, 16), 16)
        x = Dyadic(rng.randint(-(1 << 10), 1 << 10), 10)
        y = Dyadic(rng.randint(-(1 << 10), 1 << 10), 10)
        hx = 1.0 / local_condition(f, x)
        hy = 1.0 / local_condition(f, y)
        assert abs(hx - hy) <= f.degree * abs(float(x) - float(y)) + 1e-9
    print("\nACCEPTANCE 4 (reciprocal-condition Lipschitz): PASS — 10000 triples")


def test_05_separation_bound(suite, suite_oracle):
    checked = 0
    nontrivial = 0
    for f, oracle in zip(suite, suite_oracle):
        if square_free_part(f).degree != f.degree:
            continue
        bracket = global_condition_bracket(f, rel_tol=0.5, max_grid=1 << 18)
        if not math.isfinite(bracket.upper):
            continue
        d = f.degree
        bound = 1.0 / (12.0 * d * bracket.upper)
        eps = separation_epsilon(f, bracket.upper)
        near = [z for z in oracle.roots if distance_to_interval(z) <= eps]
        checked += 1
        if len(near) < 2:
            continue
        true_min = min(abs(a - b) for i, a in enumerate(near) for b in near[i + 1 :])
        assert bound <= true_min * (1 + 1e-9), f.to_text()
        nontrivial += 1
    assert checked >= 700, f"only {checked} finite brackets"
    print(
        f"\nACCEPTANCE 5 (separation lower bound): PASS — {checked} finite brackets, "
        f"{nontrivial} with root pairs near the interval"
    )


def test_06_root_count_bound(suite, suite_oracle):
    checked = 0
    for f, oracle in zip(suite, suite_oracle):
        if checked >= 500:
            break
        if f.degree < 2:
            continue
        bound = cover_root_count_bound(f)
        counts = count_roots_in_cover(f)
        assert bound >= counts.max, f.to_text()
        checked += 1
    assert checked == 500
    print(f"\nACCEPTANCE 6 (disk-cover root bound): PASS — {checked} polynomials")


def test_07_obreshkoff_sandwich():
    rng = random.Random(SEED + 7)
    done = 0
    skipped = 0
    while done < 300:
        f = make_poly(rng, rng.randint(1, 10), 10)
        lo = Dyadic(rng.randint(-28, 26), 5)
        interval = DyadicInterval(lo, lo + Dyadic(rng.randint(1, 16), 5))
        discs = obreshkoff_discs(interval, f.degree)
        roots = numeric_roots(f).roots
        margin = 1e-9
        if any(
            min(
                abs(abs(z - discs.upper_center) - discs.radius),
                abs(abs(z - discs.lower_center) - discs.radius),
            )
            < margin
            for z in roots
        ):
            skipped += 1
            continue
        in_lens = sum(1 for z in roots if discs.in_lens(z))
        in_area = sum(1 for z in roots if discs.in_area(z))
        v = variations_in_interval(f, interval)
        assert in_lens <= v <= in_area, (f.to_text(), str(interval))
        done += 1
    print(
        f"\nACCEPTANCE 7 (Obreshkoff lens/area sandwich): PASS — 300 pairs "
        f"({skipped} degenerate pairs replaced)"
    )


def test_08_tail_bounds():
    t_grid = [float(2**k) for k in range(2, 25, 2)]
    for d in (16, 32):
        started = time.perf_counter()
        report = run_cond_tail(
            uniform_model(d, 64), 2000, t_grid, SEED + 8, max_grid=1 << 16
        )
        elapsed = time.perf_counter() - started
        assert report.extras["pass"], f"cond tail exceeded its curve at d={d}"
        assert elapsed < 300.0, f"cond tail d={d} took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 8a (condition tail, d={d}): PASS — 2000 trials, {elapsed:.1f}s")
    for d in (16, 32):
        started = time.perf_counter()
        report = run_rho_check(uniform_model(d, 64), 2000, SEED + 8)
        elapsed = time.perf_counter() - started
        assert report.extras["pass"], f"root-count tail exceeded its curve at d={d}"
        assert report.extras["mean_count_below_mean_bound"]
        assert elapsed < 300.0, f"rho check d={d} took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 8b (root-count tail, d={d}): PASS — 2000 trials, {elapsed:.1f}s")


def test_09_expected_steps_scaling():
    started = time.perf_counter()
    report = run_steps_scaling(
        lambda d: uniform_model(d, 32),
        [16, 64, 256],
        trials=200,
        seed=SEED + 9,
        rel_tol=0.5,
        max_grid=1 << 26,
    )
    per_d = report.extras["per_d"]
    growth = per_d["256"]["mean_node_count"] / per_d["16"]["mean_node_count"]
    assert growth < 4.0, f"mean steps grew by {growth:.2f}x from d=16 to d=256"

    checked = {16: 0, 64: 0, 256: 0}
    for row in report.rows:
        if row.cond_upper is None or not math.isfinite(row.cond_upper):
            continue
        allowance = math.ceil(math.log2(12.0 * row.d * row.cond_upper)) + 2
        assert row.depth <= allowance, (row.d, row.trial_index)
        checked[row.d] += 1
    # the depth check must not be vacuous
    assert checked[16] >= 190 and checked[64] >= 190 and checked[256] >= 120, checked
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 9 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 9 (expected steps scaling): PASS — growth {growth:.2f}x < 4, "
        f"depth bound held on {sum(checked.values())} trials, {elapsed:.1f}s"
    )


def test_10_instance_bound():
    report = run_instance_bound(
        uniform_model(64, 32),
        trials=500,
        seed=SEED + 10,
        constant=64.0,
        max_grid=1 << 22,
    )
    assert report.extras["excluded_unbounded"] <= 10, report.extras
    assert report.extras["pass"], report.extras
    print(
        f"\nACCEPTANCE 10 (instance step budget): PASS — p99 ratio "
        f"{report.extras['ratio_p99']:.4f} < 64 on 500 trials"
    )
