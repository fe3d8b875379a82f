import hashlib
import inspect
import math
import random
from fractions import Fraction

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
        # a float point is rejected, not truncated to 0 (where 4x^2 - 1
        # has condition 5, against 2.5 at 1/2)
        with pytest.raises(TypeError):
            local_condition(poly(-1, 0, 4), Dyadic(0.5))
        assert local_condition(poly(-1, 0, 4), Dyadic(1, 1)) == 2.5

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


class TestBracket:
    def test_constant_polynomial(self):
        br = global_condition_bracket(poly(5))
        assert br.lower == br.upper == 1.0 and br.achieved

    def test_identity_closed_form(self):
        # cond(x, .) == 1 everywhere.  On the first grid (spacing 1/4,
        # r = 1/8) the Taylor model of f'/d = 1 is exact but for its
        # remainder d^6 r^6 / 6!, so the reach of every cell is
        # 1 - r^6/720.  upper is the least float >= 1/(1 - r^6/720).
        br = global_condition_bracket(poly(0, 1), rel_tol=0.25)
        assert br.lower == 1.0
        assert br.achieved and br.levels == 1 and br.delta == 0.25
        assert br.upper == _least_float_at_least(1 / (1 - Fraction(1, 8) ** 6 / 720))
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
        # grid maximum is already infinite, and the scan stops there
        # whatever the budget
        for max_grid in (1 << 12, 1 << 26):
            br = global_condition_bracket(poly(1, -4, 4), max_grid=max_grid)
            assert not br.achieved
            assert br.lower == br.upper == math.inf
            assert (br.levels, br.grid_size, br.delta) == (1, 9, 0.25)

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
        for rel_tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                global_condition_bracket(poly(1, 1), rel_tol=rel_tol)
        for max_grid in (0, -5):
            with pytest.raises(ValueError, match="max_grid"):
                global_condition_bracket(poly(-1, 0, 4), max_grid=max_grid)
        # a positive budget smaller than the first grid (9 points at d = 2)
        # still has that grid scanned, and nothing finer
        for max_grid in (1, 8):
            br = global_condition_bracket(poly(-1, 0, 4), max_grid=max_grid)
            assert (br.grid_size, br.levels) == (9, 1)

    def test_bracket_contains_dense_scan(self):
        rng = random.Random(32)
        for _ in range(100):
            f = make_poly(rng, rng.randint(2, 32), 16)
            br = global_condition_bracket(f, rel_tol=0.5, max_grid=1 << 18)
            if not math.isfinite(br.upper):
                continue
            scan_max, spacing = _refined_max_condition(f)
            # the scan can undershoot the true maximum by the Lipschitz
            # slack d * spacing / 2 (same property that certifies upper),
            # spacing that of the scan which found the maximum
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
        # float points scanned on one d = 64 input; the reference, which
        # keeps every point of grids below 2^15 points, scans 129 + 257
        # over the same two levels
        points = []
        scan = condition_mod._scan

        def counting_scan(table, xs, powers=None):
            points.append(xs.size)
            return scan(table, xs, powers)

        monkeypatch.setattr(condition_mod, "_scan", counting_scan)
        f = uniform_model(64, 32).sample(1, 0)
        br = global_condition_bracket(f)
        assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f))
        assert sum(points) == br.scanned <= 133
        assert br.levels == len(points) == 2

    def test_coefficients_beyond_float_range(self):
        # cond(c f, x) = cond(f, x), and the scan's table holds each
        # coefficient over ||f||_1, so scaling f by 2^1100 (past the float
        # range) leaves every field as it is
        f = uniform_model(16, 32).sample(1, 3)
        big = IntPolynomial([c << 1100 for c in f.coeffs])
        assert _bracket_fields(global_condition_bracket(big)) == _bracket_fields(global_condition_bracket(f))

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


_ORDER = condition_mod._ORDER  # K, the order of a cell's Taylor model


def _reference_bracket(f, rel_tol=0.5, max_grid=1 << 22, full_scan_points=1 << 15):
    """The bracket's stop rule, computed without the library's shortcuts:
    each level is ``np.unique`` over the three children of every active
    point, every point is scanned afresh with Horner's rule, every
    candidate is evaluated exactly with ``Fraction`` arithmetic, repeats
    included, and the exact reach is computed at every level.  Grids below
    ``full_scan_points`` points keep every point for the next level, and
    larger ones drop a point only by the global slope d; with ``math.inf``
    no point is ever dropped, which is the exhaustive scan.  A grid with a
    singular point ends the scan."""
    d = f.degree
    if d == 0:
        return condition_mod.ConditionBracket(1.0, 1.0, 1, 2.0, True)
    err = (4.0 * d + 16.0) * 2.0**-53
    level = condition_mod._first_level(d)
    best = None  # the least exact 1/cond on any grid so far
    hf_min_running = math.inf
    upper = math.inf
    active = None
    first = True
    delta = 0.0
    while True:
        grid_size = (1 << (level + 1)) + 1
        if not first and grid_size > max_grid:
            return condition_mod.ConditionBracket(_cond(best), upper, (1 << level) + 1, delta, False)
        delta = 2.0**-level
        radius = Fraction(1, 1 << (level + 1))
        if active is None:
            ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
        else:
            ks = np.unique(np.concatenate((2 * active - 1, 2 * active, 2 * active + 1)))
            ks = ks[(ks >= -(1 << level)) & (ks <= (1 << level))]
        taylor = _float_taylor(f, ks.astype(float) * 2.0**-level)
        inv_cond = np.maximum(taylor[:, 0], taylor[:, 1])
        batch_min = float(inv_cond.min())
        hf_min_running = min(hf_min_running, batch_min)
        for idx in np.nonzero(inv_cond <= batch_min + 2.0 * err)[0]:
            h = max(_exact_taylor(f, Fraction(int(ks[idx]), 1 << level))[:2])
            best = h if best is None else min(best, h)
        lower = _cond(best)
        if lower == math.inf:
            return condition_mod.ConditionBracket(lower, math.inf, grid_size, delta, False)
        # any float error is far below 2^-20: the cell of least exact
        # reach is among these
        reach = _cell_reach(taylor.T, d, float(radius))
        bound = min(
            _exact_reach(f, Fraction(int(ks[idx]), 1 << level), radius)
            for idx in np.nonzero(reach <= float(reach.min()) + 2.0**-20)[0]
        )
        upper = _least_float_at_least(1 / bound) if bound > 0 else math.inf
        if math.isfinite(upper) and upper <= (1.0 + rel_tol) * lower:
            return condition_mod.ConditionBracket(lower, upper, grid_size, delta, True)
        if active is not None or grid_size >= full_scan_points:
            active = ks[inv_cond <= hf_min_running + 2.0 * err + d * (delta / 2.0)]
        first = False
        level += 1


def _derivatives(f, count=_ORDER + 2):
    """f, f', ..., the first ``count`` derivatives from order 0."""
    out = [f]
    while len(out) < count:
        out.append(out[-1].derivative())
    return out


def _exact_taylor(f, x):
    """|f^(k)(x)| / (d^k ||f||_1) for k = 0..K+1, exactly: 1/cond(f, x)
    is the larger of the first two."""
    d, norm = f.degree, f.one_norm()
    return [abs(g.evaluate_fraction(x)) / (d**k * norm) for k, g in enumerate(_derivatives(f))]


def _cell_reach(c, d, radius, order=_ORDER, remainder=True):
    """The reach of the cell of ``radius`` around a point with scaled
    Taylor coefficients ``c`` (``_exact_taylor``; Fractions or float
    columns): the larger of the order-K Taylor models of |f| and |f'|/d,
    less the remainder (d r)^(K+1)/(K+1)!; ``remainder`` False leaves the
    remainder out."""
    hi = np.maximum if isinstance(c[0], np.ndarray) else max
    t = d * radius
    weights = [t**k / math.factorial(k) for k in range(1, order + 1)]
    taylor = hi(
        c[0] - sum(w * c[k] for k, w in enumerate(weights, 1)),
        c[1] - sum(w * c[k + 1] for k, w in enumerate(weights, 1)),
    )
    if remainder:
        taylor = taylor - t ** (order + 1) / math.factorial(order + 1)
    return taylor


def _exact_reach(f, x, radius, order=_ORDER, remainder=True):
    """The reach of the cell of ``radius`` around x, exactly."""
    return _cell_reach(_exact_taylor(f, x), f.degree, radius, order, remainder)


def _cond(h):
    return math.inf if h == 0 else float(1 / h)


def _least_float_at_least(q):
    u = float(q)
    return math.nextafter(u, math.inf) if Fraction(u) < q else u


def _float_taylor(f, xs):
    """The columns |f^(k)(x)| / (d^k ||f||_1), k = 0..K+1, at the points
    ``xs`` by Horner's rule, one row per point."""
    d, norm = f.degree, float(f.one_norm())
    return np.stack(
        [np.abs(_float_horner(np.array(g.coeffs[::-1], dtype=float), xs)) / (float(d) ** k * norm)
         for k, g in enumerate(_derivatives(f))],
        axis=1,
    )


def _float_h(f, xs):
    """The float 1/cond, max(|f(x)|, |f'(x)|/d) / ||f||_1, at the points
    ``xs``."""
    d, norm = f.degree, float(f.one_norm())
    f0, f1 = (np.abs(_float_horner(np.array(g.coeffs[::-1], dtype=float), xs)) for g in (f, f.derivative()))
    return np.maximum(f0, f1 / d) / norm


def _float_horner(coeffs_desc, xs):
    if not coeffs_desc.size:
        return np.zeros(xs.shape)
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


def _prune_cases():
    rng = random.Random(41)
    cases = [make_poly(rng, rng.randint(2, 32), 20) for _ in range(8)]
    return cases + [uniform_model(d, 32).sample(1, i) for d, count in ((64, 3), (256, 2)) for i in range(count)]


def _record_kept(monkeypatch):
    """Record, for each refinement, the level and the indices the library
    kept for it."""
    kept = []  # (level, indices kept for the next level)
    children = condition_mod._children

    def recording_children(ks, level):
        kept.append((level - 1, set(ks.tolist())))
        return children(ks, level)

    monkeypatch.setattr(condition_mod, "_children", recording_children)
    return kept


def _mask_children(ks, level):
    """``_children`` by a mask over the 3 x n table of children: the left
    child of a point adjacent to its left neighbour, the left child of
    -2^(level-1) and the right child of 2^(level-1) are dropped.  The
    reference for the library's neighbour rule."""
    half = 1 << (level - 1)
    children = np.empty((ks.size, 3), dtype=np.int64)
    children[:, 1] = 2 * ks
    children[:, 0] = children[:, 1] - 1
    children[:, 2] = children[:, 1] + 1
    kept = np.ones((ks.size, 3), dtype=bool)
    kept[1:, 0] = np.diff(ks) != 1
    kept[0, 0] = ks[0] > -half
    kept[-1, 2] = ks[-1] < half
    out = children[kept]
    return out, (out & 1) == 1


def _prune_violations(f, kept, reach=_cell_reach):
    """Check each cell the library dropped against the level minimum.

    A cell (radius r = delta/2 around a scanned point x) may leave the
    active set only when its reach, a lower bound of 1/cond over the cell,
    lies above the least scanned 1/cond on the level's grid by the error
    budget 2E, so that it cannot hold the grid minimum.  Each level's
    active set is rebuilt here from the kept parents and rescanned with
    Horner's rule, and each reach is taken by ``reach`` from the rescanned
    columns.  Returns the number of dropped cells and the (level, index)
    of those that fail the margin."""
    d = f.degree
    err = (4.0 * d + 16.0) * 2.0**-53
    level = condition_mod._first_level(d)
    active = range(-(1 << level), (1 << level) + 1)
    dropped, violations = 0, []
    for kept_level, survivors in kept:
        assert kept_level == level and survivors <= set(active)
        ks = np.array(sorted(active), dtype=np.int64)
        taylor = _float_taylor(f, ks.astype(float) * 2.0**-level)
        margin = float(np.maximum(taylor[:, 0], taylor[:, 1]).min()) + 2.0 * err
        reaches = reach(taylor.T, d, 2.0**-level / 2.0)
        for k, bound in zip(ks.tolist(), reaches.tolist()):
            if k not in survivors:
                dropped += 1
                if not bound > margin:
                    violations.append((level, k))
        level += 1
        active = {c for a in survivors for c in (2 * a - 1, 2 * a, 2 * a + 1) if abs(c) <= 1 << level}
    return dropped, violations


class TestScan:
    """The merged, carried scan against the reference scan above."""

    def test_matches_reference_random(self):
        cases = [(uniform_model(16, 32).sample(5, i), 1 << 26) for i in range(12)]
        cases += [(uniform_model(64, 32).sample(5, i), 1 << 26) for i in range(6)]
        # one level at d = 256 does not reach the tolerance on these
        cases += [(uniform_model(256, 32).sample(5, i), 1 << 10) for i in (1, 3, 4)]
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
        # ((71x - 17)^2 + 1)(2x^2 - x + 3), a near-double root at 17/71:
        # the others reach the tolerance on their first grid, this one only
        # after 9 levels
        polys += [_times(poly(17 * 17 + 1, -2 * 17 * 71, 71 * 71), poly(3, -1, 2))]
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
        kept = _record_kept(monkeypatch)
        dropped = 0
        for f in _prune_cases():
            kept.clear()
            global_condition_bracket(f, rel_tol=0.01, max_grid=1 << 20)
            count, violations = _prune_violations(f, kept)
            assert violations == [], (f, violations[:3])
            dropped += count
        assert dropped > 1000

    def test_margin_check_catches_a_prune_without_drift(self, monkeypatch):
        # negative control: an order-1 Taylor model without its remainder
        # term (the drift of f' and f'' over the cell) is unsound, and the
        # margin check above must see a prune by it drop cells it may not
        kept = _record_kept(monkeypatch)

        def reach_without_remainder(values, d, radius):
            return _cell_reach(values.T, d, radius, order=1, remainder=False)

        monkeypatch.setattr(condition_mod, "_float_reach", reach_without_remainder)
        violations = []
        for f in _prune_cases():
            kept.clear()
            global_condition_bracket(f, rel_tol=0.01, max_grid=1 << 20)
            violations += _prune_violations(f, kept)[1]
        assert violations

    def test_scan_within_error_budget(self):
        # each scanned value of f^(k) / (d^k ||f||_1), k = 0..K+1, is
        # within E of the exact one: at +-1 and 0, at points so small that
        # their powers underflow, across blocks of the power table, and for
        # coefficients beyond the float range
        rng = random.Random(43)
        level = 40
        cases = [(make_poly(rng, d, bits), count) for d, bits, count in ((1, 8, 2100), (2, 30, 1500), (9, 60, 1100))]
        cases += [(make_poly(rng, d, bits), 40) for d, bits in ((64, 32), (200, 16), (300, 2000))]
        cases += [(uniform_model(1024, 32).sample(1, 0), 12)]
        for f, count in cases:
            d, norm = f.degree, f.one_norm()
            ks = [-(1 << level), -1, 0, 1, 3, 1 << 20, 1 << level]
            ks += [rng.randint(-(1 << level), 1 << level) for _ in range(count - len(ks))]
            table = condition_mod._scan_table(f.coeffs, norm)
            values = condition_mod._scan(table, np.array(ks, dtype=float) * 2.0**-level)
            err = (4.0 * d + 16.0) * 2.0**-53
            assert values.shape == (len(ks), _ORDER + 2)
            for col, g in enumerate(_derivatives(f)):
                scale = Fraction(1, d**col * norm)
                for k, v in zip(ks, values[:, col].tolist()):
                    exact = g.evaluate_dyadic(Dyadic(k, level)).to_fraction() * scale
                    assert abs(Fraction(v) - exact) <= err, (d, col, k)

    def test_each_point_scanned_and_evaluated_once(self, monkeypatch):
        # a point is evaluated exactly once, whether the lower end (a grid
        # maximum candidate) or the upper end (a least-reach candidate)
        # needed it first
        scanned = []  # x per float evaluation
        evaluated = []  # exact points
        scan = condition_mod._scan
        exact = condition_mod._exact_values

        def counting_scan(table, xs, powers=None):
            scanned.extend(xs.tolist())
            return scan(table, xs, powers)

        def counting_exact(coeffs, x):
            evaluated.append(x.to_fraction())
            return exact(coeffs, x)

        monkeypatch.setattr(condition_mod, "_scan", counting_scan)
        monkeypatch.setattr(condition_mod, "_exact_values", counting_exact)
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
            assert len(set(scanned)) == len(scanned) == br.scanned, f
            assert len(set(evaluated)) == len(evaluated) == br.exact, f
            assert _bracket_fields(br) == _bracket_fields(_reference_bracket(f, rel_tol, max_grid))
            levels += br.levels - 1  # refinements of the first grid
        assert levels > 4 * len(cases)

    def test_exact_values_match_fractions(self):
        # one integer Horner pass gives the K + 2 Taylor coefficients
        # f^(j)(x)/j! at a dyadic x = k/2^e exactly, the same integers at
        # every exponent the point is written with, and from them 1/cond
        # and the cell's reach
        rng = random.Random(44)
        for _ in range(200):
            f = make_poly(rng, rng.randint(1, 20), 24)
            d, norm = f.degree, f.one_norm()
            e = rng.randint(0, 30)
            k = rng.randint(-(1 << e), 1 << e)
            x = Fraction(k, 1 << e)
            values = condition_mod._exact_values(f.coeffs, Dyadic(k, e))
            assert values == condition_mod._exact_values(f.coeffs, Dyadic(k << 3, e + 3))
            reduced, taylor = values
            assert len(taylor) == _ORDER + 2 and x.denominator == 1 << reduced
            for j, g in enumerate(_derivatives(f)):
                q = Fraction(1 << reduced)
                assert taylor[j] / q ** (d - j) == g.evaluate_fraction(x) / math.factorial(j), (j, f, x)
            assert local_condition(f, Dyadic(k, e)) == _cond(max(_exact_taylor(f, x)[:2]))
            m = e + rng.randint(1, 4)
            num, shift = condition_mod._reach(values, d, norm, m)
            scale = math.factorial(_ORDER + 1) * d * norm
            assert Fraction(num, scale << shift) == _exact_reach(f, x, Fraction(1, 1 << m))
        # coefficients wider than 2^1000, past the float range
        for _ in range(20):
            f = make_poly(rng, rng.randint(1, 12), 1100)
            assert max(map(abs, f.coeffs)) > 1 << 1000
            e = rng.randint(0, 30)
            k = rng.randint(-(1 << e), 1 << e)
            reduced, taylor = condition_mod._exact_values(f.coeffs, Dyadic(k, e))
            x, q = Fraction(k, 1 << e), Fraction(1 << reduced)
            for j, g in enumerate(_derivatives(f)):
                assert taylor[j] / q ** (f.degree - j) == g.evaluate_fraction(x) / math.factorial(j), (j, f, x)

    def test_exact_kernel_guards_its_order(self):
        # ``_exact_values`` holds K + 2 = 7 accumulators, so the module
        # refuses to load with another K
        source = inspect.getsource(condition_mod)
        assert source.count("_ORDER = 5\n") == 1
        code = compile(source.replace("_ORDER = 5\n", "_ORDER = 6\n"), condition_mod.__file__, "exec")
        with pytest.raises(ImportError, match="_ORDER = 5"):
            exec(code, {"__name__": "rootiso._condition_k6", "__package__": "rootiso"})

    def test_fields_independent_of_float_evaluator(self, monkeypatch):
        # floats only choose the cells and points evaluated exactly, so a
        # second evaluator within the same error budget, Horner's rule on
        # the same table in place of the power-table product, gives the
        # same bracket
        rng = random.Random(45)
        cases = [(uniform_model(d, 32).sample(2, i), 1 << 22) for d in (16, 64) for i in range(6)]
        cases += [(uniform_model(256, 32).sample(2, 0), 1 << 22)]
        cases += [(make_poly(rng, rng.randint(2, 40), 20), 1 << 20) for _ in range(10)]
        cases += [(_times(poly(1, -6, 9), make_poly(rng, 9, 8)), 1 << 16), (poly(1, -4, 4), 1 << 12)]
        brackets = [(global_condition_bracket(f, max_grid=max_grid), f, max_grid) for f, max_grid in cases]

        def horner_scan(table, xs, powers=None):
            return np.stack([_float_horner(table[::-1, col], xs) for col in range(table.shape[1])], axis=1)

        monkeypatch.setattr(condition_mod, "_scan", horner_scan)
        for br, f, max_grid in brackets:
            assert _bracket_fields(global_condition_bracket(f, max_grid=max_grid)) == _bracket_fields(br)

    def test_children_match_mask_rule(self):
        # seeded sorted distinct index sets, of every density, with and
        # without each grid end; dropping either the range test or the
        # neighbour test from ``_children`` fails this
        rng = np.random.default_rng(46)
        seen = {"both ends": 0, "adjacent": 0, "isolated": 0}
        for _ in range(3000):
            level = int(rng.integers(1, 10))
            half = 1 << (level - 1)
            grid = np.arange(-half, half + 1, dtype=np.int64)
            chosen = rng.random(grid.size) < rng.random()
            chosen[0] |= rng.random() < 0.5
            chosen[-1] |= rng.random() < 0.5
            chosen[rng.integers(grid.size)] = True
            ks = grid[chosen]
            seen["both ends"] += bool(chosen[0] and chosen[-1])
            gaps = np.diff(ks)
            seen["adjacent"] += bool((gaps == 1).any())
            seen["isolated"] += bool((gaps > 1).any())
            out, odd = condition_mod._children(ks, level)
            ref_out, ref_odd = _mask_children(ks, level)
            assert out.tolist() == ref_out.tolist() and odd.tolist() == ref_odd.tolist(), (level, ks)
        assert min(seen.values()) > 500, seen

    def test_fields_and_work_at_mc_steps_settings(self):
        # the fields and the levels, scanned and exact counts of 64 uniform
        # brackets at the settings of the mc-steps benchmark, pinned to
        # their values before the scan's constants were cached: a float
        # evaluator or a cache that moves a single count fails this
        rows = []
        for d in (16, 64):
            for i in range(32):
                br = global_condition_bracket(uniform_model(d, 32).sample(35, i), rel_tol=0.5, max_grid=1 << 26)
                rows.append((*_bracket_fields(br), br.levels, br.scanned, br.exact))
        assert [sum(col) for col in list(zip(*rows))[4:]] == [64, 82, 5251, 111]
        digest = "6ca03d7627759c9bfcd65fbe25efd2246e8b56c3aadc2bec27379cce1292b0d5"
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_constants_cache_within_its_bound(self):
        # the per-degree constants stay read-only and within their byte
        # bound after a d = 1024 bracket, whose first grid's power table
        # alone is 2049 x 1025 floats, and brackets at small degrees; a
        # degree whose power table would pass its own bound holds none
        cache = condition_mod._constants_cache
        for d in (1024, 2, 16, 64, 256, 1024, 3, 17):
            global_condition_bracket(uniform_model(d, 32).sample(1, 0), max_grid=1)
            assert sum(e.nbytes for e in cache.values()) <= condition_mod._CONSTANTS_BYTES
        assert list(cache)[-1] == 17
        big = condition_mod._constants(1024)
        assert big.powers.shape == (2049, 1025) and big.nbytes > big.powers.nbytes
        assert condition_mod._constants(1025).powers is None
        assert sum(e.nbytes for e in cache.values()) <= condition_mod._CONSTANTS_BYTES
        for entry in cache.values():
            arrays = [entry.ks, entry.xs, entry.rows, entry.factors] + [entry.powers] * (entry.powers is not None)
            assert not any(a.flags.writeable for a in arrays)

    def test_uniform_degree_256_achieved(self):
        # the local slope certifies a sharp upper end at the paper's
        # degrees, where the global slope d left upper infinite
        for i in range(4):
            br = global_condition_bracket(uniform_model(256, 32).sample(1, i))
            assert br.achieved and br.ratio() <= 1.5, i


def _library_reach(f, k, level):
    """``condition._reach`` of the cell around k/2^level, as a Fraction."""
    d, norm = f.degree, f.one_norm()
    num, shift = condition_mod._reach(condition_mod._exact_values(f.coeffs, Dyadic(k, level)), d, norm, level + 1)
    return Fraction(num, (math.factorial(_ORDER + 1) * d * norm) << shift)


def _reach_violations(f, level, reach=_library_reach, samples=64):
    """Check each cell of the grid at ``level`` against the bound
    ``reach`` certifies for it.

    The reach of a cell (radius r = 2^-(level + 1) around a grid point x)
    must lie below 1/cond at every point of the cell; this samples each
    cell at ``samples`` + 1 evenly spaced points with Horner's rule (whose
    own error is far below the tolerance) and returns the grid indices of
    the cells whose bound exceeds a sample."""
    m = level + 1
    violations = []
    for k in range(-(1 << level), (1 << level) + 1):
        bound = reach(f, k, level)
        ys = np.clip(k * 2.0**-level + np.linspace(-1.0, 1.0, samples + 1) * 2.0**-m, -1.0, 1.0)
        if float(bound) > float(_float_h(f, ys).min()) + 1e-12:
            violations.append(k)
    return violations


def _reach_cases():
    rng = random.Random(46)
    cases = [make_poly(rng, rng.randint(2, 24), 16) for _ in range(6)]
    # x^20 at +-1 has every scaled derivative near its 1-norm bound: the
    # first-order bound 1 - d r = 11/16, whose slope is capped at d, lies
    # above the Taylor reach there
    return cases + [_times(poly(1, -6, 9), make_poly(rng, 5, 8)), _chebyshev(12), poly(*([0] * 20 + [1]))]


def _chebyshev(n):
    a, b = [1], [0, 1]
    for _ in range(n - 1):
        a, b = b, [x - y for x, y in zip([0] + [2 * c for c in b], a + [0, 0])]
    return IntPolynomial(b)


def _refined_max_condition(f, points=20001, minima=8, rounds=3):
    """(M, spacing): the maximum M of cond over [-1, 1] by a float scan,
    refined around its ``minima`` least local minima of 1/cond by
    ``rounds`` of 2001-point scans, each over two steps of the last around
    its least point; ``spacing`` is the step of the scan that found M."""
    xs = np.linspace(-1.0, 1.0, points)
    h = _float_h(f, xs)
    local = (np.r_[True, h[1:] <= h[:-1]]) & (np.r_[h[:-1] <= h[1:], True])
    least, spacing = float(h.min()), 2.0 / (points - 1)
    starts = sorted(np.nonzero(local)[0], key=lambda i: h[i])[:minima]
    centres, steps = xs[starts], np.full(len(starts), spacing)
    for _ in range(rounds):
        # all minima in one scan, a row each
        ys = np.linspace(np.maximum(-1.0, centres - steps), np.minimum(1.0, centres + steps), 2001, axis=1)
        hy = _float_h(f, ys.ravel()).reshape(ys.shape)
        best = hy.argmin(axis=1)
        rows = np.arange(len(starts))
        centres, steps = ys[rows, best], ys[:, 1] - ys[:, 0]
        row = int(hy[rows, best].argmin())
        if hy[row, best[row]] < least:
            least, spacing = float(hy[row, best[row]]), float(steps[row])
    return (math.inf if least == 0 else 1.0 / least), spacing


class TestUpperBound:
    """The upper end from the cells' reach: its cells' bounds, and the
    bracket against a scan refined around its least points."""

    def test_cell_reach_contains_cell_minimum(self):
        # on the first grid and on the next finer one
        for f in _reach_cases():
            level = condition_mod._first_level(f.degree)
            for finer in (0, 1):
                assert _reach_violations(f, level + finer) == [], (f, finer)

    def test_containment_catches_a_reach_without_drift(self):
        # negative control: the order-K Taylor model without its remainder
        # term, the drift of f^(K+1) over the cell, is unsound, and the
        # cell containment check above must see a bound above 1/cond.  On
        # the fourth case, of degree 24, the cells 8..14 of the first grid
        # fail, although the remainder there is only (24/64)^6/6! < 4e-6.
        def reach_without_remainder(f, k, level):
            return _exact_reach(f, Fraction(k, 1 << level), Fraction(1, 1 << (level + 1)), remainder=False)

        f = _reach_cases()[3]
        assert f.degree == 24
        violations = _reach_violations(f, condition_mod._first_level(f.degree), reach_without_remainder)
        assert violations == list(range(8, 15))

    def test_upper_contains_refined_scan(self):
        # random inputs, products with a near-double root, Chebyshev
        # polynomials (equal minima of 1/cond at many points), over three
        # tolerances
        rng = random.Random(47)
        cases = [make_poly(rng, rng.randint(2, 40), 16) for _ in range(12)]
        for _ in range(6):
            a, b = rng.randint(-60, 60), rng.randint(61, 90)
            near = poly(a * a + rng.choice((-1, 1)), -2 * a * b, b * b)
            cases.append(_times(near, make_poly(rng, rng.randint(1, 10), 8)))
        cases += [_chebyshev(n) for n in (5, 9, 16, 24)]
        finite = 0
        for f in cases:
            truth, _ = _refined_max_condition(f)
            for rel_tol in (0.05, 0.5, 2.0):
                br = global_condition_bracket(f, rel_tol=rel_tol, max_grid=1 << 20)
                assert br.lower <= truth * (1 + 1e-9), (f, rel_tol)
                if math.isfinite(br.upper):
                    finite += 1
                    assert truth <= br.upper * (1 + 1e-9), (f, rel_tol)
        assert finite >= 60


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
