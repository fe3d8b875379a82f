import math
import random

import numpy as np
import pytest

import rootiso.condition as condition_mod
from conftest import make_poly
from rootiso.condition import (
    UnboundedConditionError,
    global_condition_bracket,
    local_condition,
    separation_epsilon,
    separation_lower_bound,
)
from rootiso.dyadic import Dyadic
from rootiso.models import uniform_model
from rootiso.polynomial import IntPolynomial, ZeroPolynomialError
from rootiso.regions import numeric_roots


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestLocal:
    def test_examples(self):
        assert local_condition(poly(1, 0, -1), Dyadic(0)) == 2.0
        assert local_condition(poly(0, 1), Dyadic(1, 1)) == 1.0
        assert local_condition(poly(2, -1), Dyadic(1)) == 3.0

    def test_singular_point_is_infinite(self):
        # (2x-1)^2 has f = f' = 0 at x = 1/2
        assert local_condition(poly(1, -4, 4), Dyadic(1, 1)) == math.inf

    def test_preconditions(self):
        with pytest.raises(ZeroPolynomialError):
            local_condition(IntPolynomial([]), Dyadic(0))
        with pytest.raises(ValueError, match="outside"):
            local_condition(poly(1, 1), Dyadic(3, 1))

    def test_matches_float_reference(self):
        rng = random.Random(31)
        for _ in range(300):
            f = make_poly(rng, rng.randint(1, 12), 16)
            x = Dyadic(rng.randint(-(1 << 8), 1 << 8), 8)
            fx = abs(f.evaluate_fraction(x.to_fraction()))
            fpx = abs(f.derivative().evaluate_fraction(x.to_fraction()))
            denom = max(fx, fpx / f.degree)
            if denom == 0:
                continue
            expect = f.one_norm() / denom
            assert local_condition(f, x) == pytest.approx(float(expect), rel=1e-12)


def _dense_scan_max(f, points=1_000_000):
    xs = np.linspace(-1.0, 1.0, points)
    c = np.array(f.coeffs[::-1], dtype=float)
    cp = np.array(f.derivative().coeffs[::-1], dtype=float)
    with np.errstate(divide="ignore"):
        vals = f.one_norm() / np.maximum(np.abs(np.polyval(c, xs)), np.abs(np.polyval(cp, xs)) / f.degree)
    return float(np.max(vals)), 2.0 / (points - 1)


class TestBracket:
    def test_constant_polynomial(self):
        br = global_condition_bracket(poly(5))
        assert br.lower == br.upper == 1.0 and br.achieved

    def test_identity_closed_form(self):
        # cond(x, .) == 1 everywhere, so upper = 1/(1 - delta)
        br = global_condition_bracket(poly(0, 1), rel_tol=0.25)
        assert br.lower == 1.0
        assert br.achieved
        assert br.upper == pytest.approx(1.0 / (1.0 - br.delta), rel=1e-6)
        assert br.ratio() <= 1.25

    def test_known_maximum(self):
        # max of cond(x^2 - 1) over [-1, 1] is 1 + sqrt(5)
        br = global_condition_bracket(poly(-1, 0, 1), rel_tol=0.01)
        truth = 1.0 + math.sqrt(5.0)
        assert br.lower <= truth * (1 + 1e-9)
        assert br.upper >= truth * (1 - 1e-9)
        assert br.ratio() <= 1.01

    def test_double_root_on_grid(self):
        # (2x-1)^2: the singular point 1/2 is itself a grid point, so the
        # grid maximum is already infinite
        br = global_condition_bracket(poly(1, -4, 4), max_grid=1 << 12)
        assert not br.achieved
        assert br.upper == math.inf

    def test_double_root_off_grid(self):
        # (3x-1)^2: singular at 1/3, never a dyadic grid point; the lower
        # bound grows without bound as the grid refines
        small = global_condition_bracket(poly(1, -6, 9), max_grid=1 << 8)
        large = global_condition_bracket(poly(1, -6, 9), max_grid=1 << 14)
        assert small.upper == math.inf and large.upper == math.inf
        assert math.isfinite(small.lower) and math.isfinite(large.lower)
        assert large.lower > 4 * small.lower

    def test_validation(self):
        with pytest.raises(ZeroPolynomialError):
            global_condition_bracket(IntPolynomial([]))
        with pytest.raises(ValueError):
            global_condition_bracket(poly(1, 1), rel_tol=0.0)

    def test_bracket_contains_dense_scan(self):
        rng = random.Random(32)
        for _ in range(100):
            f = make_poly(rng, rng.randint(2, 32), 16)
            br = global_condition_bracket(f, rel_tol=0.5, max_grid=1 << 18)
            if not math.isfinite(br.upper):
                continue
            scan_max, spacing = _dense_scan_max(f, 1_000_000)
            # the scan can undershoot the true maximum by the Lipschitz
            # slack d * spacing / 2 (same property that certifies upper)
            bias = 1.0 + f.degree * spacing * scan_max
            assert scan_max <= br.upper * (1 + 1e-9)
            assert br.lower <= scan_max * bias + 1e-9

    def test_pruned_scan_equals_exhaustive(self):
        # the library prunes from its first grid; the reference with an
        # infinite threshold scans every point of every grid
        rng = random.Random(33)
        cases = [make_poly(rng, rng.randint(2, 24), 24) for _ in range(30)]
        # double roots at 1/3 and 3/7, both off every dyadic grid: the grid
        # point nearest either one can hold the level minimum of 1/cond, so
        # a prune that drops the cell of the other changes the maximum
        cases.append(_times(poly(1, -6, 9), poly(9, -42, 49)))
        for f in cases:
            pruned = global_condition_bracket(f, max_grid=1 << 17)
            full = _reference_bracket(f, max_grid=1 << 17, full_scan_points=math.inf)
            assert pruned.lower == full.lower
            assert pruned.upper == full.upper
            assert pruned.grid_size == full.grid_size
            assert pruned.achieved == full.achieved

    def test_pruning_scans_fewer_points(self, monkeypatch):
        # float points scanned on one d = 64 input; the scan that kept
        # every point of grids below 2^15 points scanned 33785
        points = []
        horner = condition_mod._horner

        def counting_horner(coeffs_desc, xs):
            points.append(xs.size)
            return horner(coeffs_desc, xs)

        monkeypatch.setattr(condition_mod, "_horner", counting_horner)
        f = uniform_model(64, 32).sample(1, 0)
        br = global_condition_bracket(f)
        assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f))
        # each point is scanned once for f and once for f'
        assert sum(points) // 2 < 33785

    def test_deterministic(self):
        f = make_poly(random.Random(34), 20, 20)
        a = global_condition_bracket(f)
        b = global_condition_bracket(f)
        assert (a.lower, a.upper, a.grid_size, a.delta, a.achieved) == (
            b.lower,
            b.upper,
            b.grid_size,
            b.delta,
            b.achieved,
        )


def _reference_bracket(f, rel_tol=0.5, max_grid=1 << 22, full_scan_points=1 << 15):
    """The scan as it stood before the refinement merge: each level is
    ``np.unique`` over the three children of every active point, every
    point is scanned in float afresh, and every candidate is evaluated
    exactly, repeats included.  Grids below ``full_scan_points`` points
    keep every point for the next level; with ``math.inf`` no point is
    ever dropped, which is the exhaustive scan."""
    d = f.degree
    if d == 0:
        return condition_mod.ConditionBracket(1.0, 1.0, 1, 2.0, True)
    err = (4.0 * d + 16.0) * 2.0**-53
    level = max(2, (4 * d - 1).bit_length())
    best_cond = 0.0
    hf_min_running = math.inf
    last_finite_upper = math.inf
    active = None
    first = True
    delta = 0.0
    while True:
        grid_size = (1 << (level + 1)) + 1
        if not first and grid_size > max_grid:
            return condition_mod.ConditionBracket(best_cond, last_finite_upper, (1 << level) + 1, delta, False)
        delta = 2.0**-level
        if active is None:
            ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
        else:
            ks = np.unique(np.concatenate((2 * active - 1, 2 * active, 2 * active + 1)))
            ks = ks[(ks >= -(1 << level)) & (ks <= (1 << level))]
        inv_cond = _scan(f, ks, level)
        batch_min = float(inv_cond.min())
        hf_min_running = min(hf_min_running, batch_min)
        for idx in np.nonzero(inv_cond <= batch_min + 2.0 * err)[0]:
            best_cond = max(best_cond, local_condition(f, Dyadic(int(ks[idx]), level)))
        lower = best_cond
        inv_m = 1.0 / (lower * condition_mod._SAFETY)
        upper = 1.0 / (inv_m - d * delta) if inv_m > d * delta else math.inf
        if math.isfinite(upper):
            last_finite_upper = upper
            if upper <= (1.0 + rel_tol) * lower:
                return condition_mod.ConditionBracket(lower, upper, grid_size, delta, True)
        if active is not None or grid_size >= full_scan_points:
            active = ks[inv_cond <= hf_min_running + 2.0 * err + d * (delta / 2.0)]
        first = False
        level += 1


def _scan(f, ks, level):
    """The float 1/cond, max(|f(x)|, |f'(x)|/d) / ||f||_1, at x = k 2^-level."""
    xs = ks.astype(float) * 2.0**-level
    values = np.abs(_float_horner(np.array(f.coeffs[::-1], dtype=float), xs))
    slopes = np.abs(_float_horner(np.array(f.derivative().coeffs[::-1], dtype=float), xs))
    return np.maximum(values, slopes / f.degree) / float(f.one_norm())


def _float_horner(coeffs_desc, xs):
    acc = np.full(xs.shape, coeffs_desc[0])
    for c in coeffs_desc[1:]:
        acc = acc * xs + c
    return acc


def _times(f, g):
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)


def _bracket_fields(br):
    return (br.lower, br.upper, br.grid_size, br.delta, br.achieved)


class TestScan:
    """The merged, carried scan against the reference scan above."""

    def test_matches_reference_random(self):
        cases = [(uniform_model(16, 32).sample(5, i), 1 << 26) for i in range(12)]
        cases += [(uniform_model(64, 32).sample(5, i), 1 << 26) for i in range(6)]
        cases += [(uniform_model(256, 32).sample(5, i), 1 << 20) for i in range(3)]
        cases += [(uniform_model(256, 32).sample(5, 3), 1 << 26)]
        achieved = set()
        for f, max_grid in cases:
            br = global_condition_bracket(f, max_grid=max_grid)
            assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f, max_grid=max_grid))
            achieved.add(br.achieved)
        assert achieved == {True, False}

    def test_matches_reference_across_budgets(self):
        rng = random.Random(37)
        polys = [make_poly(rng, rng.randint(2, 48), 24) for _ in range(4)]
        polys += [uniform_model(32, 32).sample(6, i) for i in range(2)]
        outcomes = set()
        for k in range(8, 27, 3):
            for f in polys:
                br = global_condition_bracket(f, max_grid=1 << k)
                assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f, max_grid=1 << k))
                outcomes.add(br.achieved)
        assert outcomes == {True, False}

    def test_matches_reference_tight_tolerance(self):
        rng = random.Random(38)
        for _ in range(6):
            f = make_poly(rng, rng.randint(2, 40), 20)
            br = global_condition_bracket(f, rel_tol=0.01, max_grid=1 << 24)
            ref = _reference_bracket(f, rel_tol=0.01, max_grid=1 << 24)
            assert _bracket_fields(br) == _bracket_fields(ref)

    def test_matches_reference_double_roots(self):
        rng = random.Random(39)
        on_grid = poly(1, -4, 4)  # (2x - 1)^2, singular at the grid point 1/2
        off_grid = poly(1, -6, 9)  # (3x - 1)^2, singular at 1/3
        cases = [on_grid, off_grid, _times(on_grid, make_poly(rng, 9, 8)), _times(off_grid, make_poly(rng, 13, 8))]
        for f in cases:
            for max_grid in (1 << 8, 1 << 14, 1 << 20):
                br = global_condition_bracket(f, max_grid=max_grid)
                assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f, max_grid=max_grid))

    def test_dropped_cells_clear_the_lipschitz_margin(self, monkeypatch):
        # a cell (radius delta/2 around a scanned point x) may leave the
        # active set only when hf(x) - d delta/2 exceeds the level minimum
        # by the error budget 2E, hf being the scanned 1/cond; each level's
        # active set is rebuilt here from the kept parents and rescanned
        kept = []  # (level, indices kept for the next level)
        children = condition_mod._children

        def recording_children(ks, level):
            kept.append((level - 1, set(ks.tolist())))
            return children(ks, level)

        monkeypatch.setattr(condition_mod, "_children", recording_children)
        rng = random.Random(41)
        cases = [make_poly(rng, rng.randint(2, 32), 20) for _ in range(8)]
        cases += [uniform_model(64, 32).sample(1, i) for i in range(3)]
        dropped = 0
        for f in cases:
            kept.clear()
            global_condition_bracket(f, rel_tol=0.01, max_grid=1 << 20)
            d = f.degree
            err = (4.0 * d + 16.0) * 2.0**-53
            level = max(2, (4 * d - 1).bit_length())
            active = range(-(1 << level), (1 << level) + 1)
            for kept_level, survivors in kept:
                assert kept_level == level and survivors <= set(active)
                ks = np.array(sorted(active), dtype=np.int64)
                hf = _scan(f, ks, level)
                margin = float(hf.min()) + 2.0 * err + d * 2.0**-level / 2.0
                for k, h in zip(ks.tolist(), hf.tolist()):
                    if k not in survivors:
                        dropped += 1
                        assert h > margin, (f, level, k)
                level += 1
                active = {c for a in survivors for c in (2 * a - 1, 2 * a, 2 * a + 1) if abs(c) <= 1 << level}
        assert dropped > 1000

    def test_each_point_scanned_and_evaluated_once(self, monkeypatch):
        scanned = []  # (coefficient count, x) per float evaluation
        evaluated = []  # exact points
        horner = condition_mod._horner
        exact = condition_mod.local_condition

        def counting_horner(coeffs_desc, xs):
            scanned.extend((len(coeffs_desc), x) for x in xs.tolist())
            return horner(coeffs_desc, xs)

        def counting_local(f, x):
            evaluated.append(x.to_fraction())
            return exact(f, x)

        monkeypatch.setattr(condition_mod, "_horner", counting_horner)
        monkeypatch.setattr(condition_mod, "local_condition", counting_local)
        rng = random.Random(40)
        cases = [
            (uniform_model(64, 32).sample(1, 0), 0.5, 1 << 26),
            (make_poly(rng, 16, 20), 0.01, 1 << 26),
            (poly(1, -6, 9), 0.5, 1 << 20),
            (poly(-1, 0, 1), 0.01, 1 << 18),
        ]
        levels = 0
        for f, rel_tol, max_grid in cases:
            scanned.clear()
            evaluated.clear()
            br = global_condition_bracket(f, rel_tol=rel_tol, max_grid=max_grid)
            assert len(set(scanned)) == len(scanned), f
            assert len(set(evaluated)) == len(evaluated), f
            assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f, rel_tol, max_grid))
            levels += br.grid_size.bit_length() - max(2, (4 * f.degree - 1).bit_length())
        assert levels > 4 * len(cases)


class TestLipschitz:
    def test_reciprocal_condition_is_d_lipschitz(self):
        rng = random.Random(35)
        for _ in range(1000):
            f = make_poly(rng, rng.randint(1, 16), 16)
            x = Dyadic(rng.randint(-(1 << 10), 1 << 10), 10)
            y = Dyadic(rng.randint(-(1 << 10), 1 << 10), 10)
            hx = 1.0 / local_condition(f, x)
            hy = 1.0 / local_condition(f, y)
            assert abs(hx - hy) <= f.degree * abs(float(x) - float(y)) + 1e-9


class TestSeparation:
    def test_degree_one(self):
        assert separation_lower_bound(poly(0, 1), cond_upper=1.0 + 1e-6) == pytest.approx(
            1.0 / 12.0, rel=1e-5
        )

    def test_bound_below_true_distance(self):
        f = poly(-1, 0, 4)
        br = global_condition_bracket(f)
        bound = separation_lower_bound(f, cond_upper=br.upper)
        assert bound <= 1.0  # true root distance
        eps = separation_epsilon(f, br.upper)
        assert 0.0 < eps < 1.0 / f.degree

    def test_unbounded_condition(self):
        f = poly(1, -4, 4)
        upper = global_condition_bracket(f, max_grid=1 << 10).upper
        with pytest.raises(UnboundedConditionError, match="unbounded condition"):
            separation_lower_bound(f, upper)

    def test_random_suite_bound_holds(self):
        rng = random.Random(36)
        for _ in range(40):
            f = make_poly(rng, rng.randint(2, 16), 12)
            br = global_condition_bracket(f, max_grid=1 << 16)
            if not math.isfinite(br.upper):
                continue
            bound = separation_lower_bound(f, cond_upper=br.upper)
            roots = numeric_roots(f).roots
            eps = separation_epsilon(f, br.upper)
            near = [z for z in roots if math.hypot(max(0.0, abs(z.real) - 1.0), z.imag) <= eps]
            if len(near) < 2:
                continue
            true_min = min(
                abs(a - b) for i, a in enumerate(near) for b in near[i + 1 :]
            )
            assert bound <= true_min * (1 + 1e-9)
