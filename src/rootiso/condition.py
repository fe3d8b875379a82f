"""Condition numbers on [-1, 1] and certified global brackets.

The local condition of f at x is ||f||_1 / max(|f(x)|, |f'(x)|/d); large
values mean f is close to a polynomial with a singular zero at x.  The
global condition is its maximum over the closed interval [-1, 1], and
x -> 1 / cond(f, x) is d-Lipschitz there, which is what certifies the
upper end of the bracket: if M is the exact maximum over a grid of
spacing delta then cond over the whole interval is at most
1 / (1/M - d delta) whenever that is positive.

The grid scan prunes with a sharper, local slope.  Over a cell of radius
r around x, 1/cond moves no faster than
max(|f'(x)|, |f''(x)|/d) / ||f||_1 + d^2 r, since each derivative grows
the 1-norm by at most a factor d (Tonelli-Cueto and Tsigaridas,
"Condition numbers for the cube. I", ISSAC 2020, give the grid method
and the d-Lipschitz bound; this is its first-order Taylor refinement).
Near a minimum of 1/cond that slope is far below d, so far fewer cells
stay active; the bracket itself still uses the global d.

Numerics policy: condition values only matter on a log scale downstream,
so each value is the float quotient of exactly computed integer/dyadic
quantities (relative error below 2^-40).  Grid scans run in vectorized
floating point with a rigorous error budget: one matrix product of a
table of powers of x with the correctly rounded coefficients of f, f'/d
and f''/d over ||f||_1 (``_scan``).  Only the few points that could
attain the grid maximum are evaluated exactly, so the reported bracket is
the same one a fully exact scan of the grid would produce.  The scan
visits each grid point once: a level is the sorted merge of the previous
level's active points and their odd neighbours, the points carried over
keep their scanned values and slopes, and no dyadic is evaluated exactly
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import Dyadic
from .polynomial import IntPolynomial, ZeroPolynomialError


class UnboundedConditionError(ArithmeticError):
    """No finite upper bound on the global condition is available."""


_ONE = Dyadic(1)
# absorbs the 2^-40 rounding of exact-path quotients, and rounds the float
# slope bounds up
_SAFETY = 1.0 + 2.0**-30


def local_condition(f: IntPolynomial, x: Dyadic) -> float:
    """cond(f, x) = ||f||_1 / max(|f(x)|, |f'(x)|/d) for x in [-1, 1].

    |f(x)| and |f'(x)| are computed exactly as dyadics and the winner of
    the (exact) comparison feeds one correctly rounded division, so the
    result has relative error at most 2^-40.  Returns +inf exactly when
    f(x) = f'(x) = 0.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if abs(x) > _ONE:
        raise ValueError(f"point {x} outside [-1, 1]")
    if f.degree == 0:
        return 1.0
    return _local_condition(f, f.derivative(), f.one_norm(), x)


def _local_condition(f: IntPolynomial, fp: IntPolynomial, norm: int, x: Dyadic) -> float:
    """``local_condition`` of an f of degree >= 1 at x in [-1, 1], given
    its derivative ``fp`` and its 1-norm, which a caller evaluating many
    points computes once."""
    d = f.degree
    fx = abs(f.evaluate_dyadic(x))
    fpx = abs(fp.evaluate_dyadic(x))
    if fx.is_zero and fpx.is_zero:
        return math.inf
    if (fx * d) >= fpx:
        quotient = Fraction(norm) / fx.to_fraction()
    else:
        quotient = Fraction(norm * d) / fpx.to_fraction()
    try:
        return float(quotient)
    except OverflowError:
        return math.inf


@dataclass
class ConditionBracket:
    """Certified enclosure lower <= cond over [-1,1] <= upper.

    ``lower`` is the exact maximum of the condition over the final dyadic
    grid; ``upper`` is finite only once the grid is fine enough relative
    to that maximum.  ``achieved`` is False when the requested relative
    tolerance was not reached before the grid budget ran out.

    ``levels``, ``scanned`` and ``exact`` count the work that produced the
    bracket: grid levels visited, points scanned in float and points
    evaluated exactly.  They are not part of ``to_json``.
    """

    lower: float
    upper: float
    grid_size: int
    delta: float
    achieved: bool
    levels: int = 0
    scanned: int = 0
    exact: int = 0

    def ratio(self) -> float:
        if not self.lower or not math.isfinite(self.lower):
            return math.inf
        return self.upper / self.lower

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": None if math.isinf(self.upper) else self.upper,
            "lg_upper": None if math.isinf(self.upper) else math.log2(self.upper),
            "grid_size": self.grid_size,
            "delta": self.delta,
            "achieved": self.achieved,
        }


def global_condition_bracket(
    f: IntPolynomial,
    rel_tol: float = 0.5,
    max_grid: int = 1 << 22,
) -> ConditionBracket:
    """Bracket the maximum condition over [-1, 1].

    Scans dyadic grids x = k 2^-level, |k| <= 2^level, starting at
    spacing at most 1/(4 d) and halving until upper/lower <= 1 + rel_tol
    or the grid would exceed ``max_grid`` points (the initial grid is
    always evaluated).

    The reported lower bound is the exact maximum of the condition over
    the final grid.  Three devices keep that affordable without changing
    the result:

    * the float scan carries the rigorous error budget E of ``_scan``,
      and only points whose scanned 1/cond is within 2E of the level
      minimum are evaluated exactly; no other point can attain the grid
      minimum of 1/cond, and a point evaluated at a coarser level is not
      evaluated again, since its value is already in the maximum;
    * each level is the refinement of an active set of the previous one
      (``_children``): the even child 2a of a point a is that point
      itself, so it keeps the scanned 1/cond and slope, and only the odd
      children are scanned in float;
    * a grid cell (radius r = delta/2 around a scanned point x) leaves
      the active set once hf(x) - L r exceeds the level minimum by 2E,
      where L is the cell's own slope bound (``_cell_slope``) and hf the
      scanned 1/cond.  Every finer grid point y of the cell then has
      1/cond(y) >= hf(x) - E - L r > level minimum + E, which is above
      the exactly evaluated minimum, so dropped cells cannot change the
      maximum at any later level.  The point attaining the minimum stays
      and carries its value, so the level minimum never rises.  An even
      child's cell lies inside its parent's, so the parent's slope
      bound, taken at the child's smaller radius, still holds for it.

    The upper bound uses the global slope d, so every field of the
    bracket is fixed by exact arithmetic: the float scan decides only
    which points are evaluated, never what is reported.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    d = f.degree
    if d == 0:
        return ConditionBracket(1.0, 1.0, 1, 2.0, True)

    table = _scan_table(f)
    fp, norm = f.derivative(), f.one_norm()
    err = (4.0 * d + 16.0) * 2.0**-53  # the budget E of ``_scan``
    # d |f'/d| and |f''/d| (over ||f||_1) are each off by at most d E,
    # well inside the slope budget d^2 E
    slope_err = d * d * err

    def scan(ks: np.ndarray, level: int) -> np.ndarray:
        """Columns: the scanned 1/cond and the slope at the point, both
        over ||f||_1, the slope with its float budget."""
        values = np.abs(_scan(table, ks.astype(float) * 2.0**-level))
        cells = np.empty((ks.size, 2))
        np.maximum(values[:, 0], values[:, 1], out=cells[:, 0])
        np.maximum(d * values[:, 1], values[:, 2], out=cells[:, 1])
        cells[:, 1] += slope_err
        return cells

    level = max(2, (4 * d - 1).bit_length())
    ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
    cells = scan(ks, level)
    levels, scanned = 1, ks.size
    evaluated = set()  # points already evaluated exactly
    best_cond = 0.0
    last_finite_upper = math.inf

    while True:
        grid_size = (1 << (level + 1)) + 1
        delta = 2.0**-level
        inv_cond = cells[:, 0]
        level_min = float(inv_cond.min())
        for idx in np.nonzero(inv_cond <= level_min + 2.0 * err)[0]:
            x = Dyadic(int(ks[idx]), level)
            if x not in evaluated:
                evaluated.add(x)
                best_cond = max(best_cond, _local_condition(f, fp, norm, x))

        lower = best_cond
        inv_m = 1.0 / (lower * _SAFETY)
        upper = 1.0 / (inv_m - d * delta) if inv_m > d * delta else math.inf
        work = (levels, scanned, len(evaluated))
        if math.isfinite(upper):
            last_finite_upper = upper
            if upper <= (1.0 + rel_tol) * lower:
                return ConditionBracket(lower, upper, grid_size, delta, True, *work)
        if (1 << (level + 2)) + 1 > max_grid:
            # report the last evaluated grid
            return ConditionBracket(lower, last_finite_upper, grid_size, delta, False, *work)

        radius = delta / 2.0
        keep = inv_cond - _cell_slope(cells[:, 1], d, radius) * radius <= level_min + 2.0 * err
        ks, cells = ks[keep], cells[keep]
        level += 1
        ks, odd = _children(ks, level)
        parents, cells = cells, np.empty((ks.size, 2))
        cells[odd] = scan(ks[odd], level)
        cells[~odd] = parents
        levels += 1
        scanned += int(odd.sum())


def _cell_slope(slope: np.ndarray, d: int, radius: float) -> np.ndarray:
    """Slope bound of 1/cond over the cells of ``radius`` around points
    whose scanned slope, float budget included, is ``slope``.

    With h = max(|f|, |f'|/d) / ||f||_1, |h(y) - h(x)| is at most |y - x|
    times the largest max(|f'|, |f''|/d) / ||f||_1 between x and y.  Since
    ||f^(k+1)||_1 <= d ||f^(k)||_1, |f'(y)| <= |f'(x)| + r d^2 ||f||_1 and
    |f''(y)|/d <= |f''(x)|/d + r d^2 ||f||_1 for |y - x| <= r, so over the
    cell the slope exceeds its value at x by at most d^2 r.  The result is
    rounded up and never above the global slope d.
    """
    return np.minimum((slope + d * d * radius) * _SAFETY, d)


def _children(ks: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices at ``level`` of the cells around the sorted, distinct
    indices ``ks`` of level - 1, in increasing order, and the mask of the
    odd ones.

    Point a has the children 2a - 1, 2a, 2a + 1.  Laid out row by row they
    are sorted, and the only repeats are 2a_i + 1 = 2a_(i+1) - 1 where
    a_(i+1) - a_i = 1; the left one of each pair is dropped, and so are
    the two children past -1 and 1.  The even child 2a is the point a
    itself, and every parent keeps it, so the even entries follow ``ks``.
    """
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


def _scan_table(f: IntPolynomial) -> np.ndarray:
    """The (d+1) x 3 table whose row j holds the coefficients of x^j in
    f, f'/d and f''/d, each divided by ||f||_1 and correctly rounded (one
    integer true division each).  Its columns have 1-norms of at most 1,
    1 and d - 1."""
    c, d, norm = f.coeffs, f.degree, f.one_norm()
    table = np.zeros((d + 1, 3))
    table[:, 0] = [ck / norm for ck in c]
    table[:-1, 1] = [k * c[k] / (d * norm) for k in range(1, d + 1)]
    table[:-2, 2] = [k * (k - 1) * c[k] / (d * norm) for k in range(2, d + 1)]
    return table


_BLOCK = 1024  # points per power table; at d = 1024 one table is 8 MiB


def _scan(table: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``table``'s polynomials at ``xs``: row i is powers(xs[i]) @ table.

    The points go in blocks of ``_BLOCK``.  Each block builds its power
    table by doubling, x^(m + i) = x^i x^m with x^m = (x^(m/2))^2, in
    Fortran order so that each doubling is one multiply of contiguous
    columns, then takes one matrix product with ``table``.

    Error budget, at |x| <= 1 and d + 1 table rows, for the table built
    by ``_scan_table``: each value is within E S of the exact value of
    the unrounded column, where E = (4d + 16) u, u = 2^-53, and S >= 1
    bounds the column's 1-norm (1 for f and f'/d, d - 1 for f''/d, all
    over ||f||_1).

    * The table's entries round once each: u S.
    * Each power x^j is the product of two earlier ones, and the chain
      behind it holds at most j - 1 roundings, so it is within gamma_j of
      x^j, gamma_n = n u / (1 - n u).
    * The dot product of d + 1 terms is within gamma_(d+1) of the exact
      sum of its products, in any summation order and with or without
      fused multiply-adds.
    * Gradual underflow in the table, the powers and the products adds
      less than (2d + 2) S 2^-1074 in all.

    Together that is below (2d + 3) u S + (2d + 2) S 2^-1074 for
    d <= 2^20, well inside E S.
    """
    n = table.shape[0]
    out = np.empty((xs.size, table.shape[1]))
    buffer = np.empty((min(xs.size, _BLOCK), n), order="F")
    for start in range(0, xs.size, _BLOCK):
        x = xs[start : start + _BLOCK]
        powers = buffer[: x.size]
        powers[:, 0] = 1.0
        if n > 1:
            powers[:, 1] = x
        m = 2
        while m < n:
            top = powers[:, m // 2] * powers[:, m // 2]
            width = min(m, n - m)
            np.multiply(powers[:, :width], top[:, None], out=powers[:, m : m + width])
            m *= 2
        np.matmul(powers, table, out=out[start : start + x.size])
    return out


# ``perfbench/tracer.py`` wraps the float evaluator by this name to count
# grid points (halving the count, as f and f' once took a call each)
_horner = _scan


def separation_lower_bound(f: IntPolynomial, cond_upper: float) -> float:
    """Certified lower bound 1/(12 d U) on the distance between roots near
    the real interval, where U bounds the global condition from above.

    Valid for root pairs within distance eps = 1/(e d U) of [-1, 1]; see
    ``separation_epsilon``.  Raises when no finite U is available (for
    instance when f has a repeated real root in the interval).
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not math.isfinite(cond_upper):
        raise UnboundedConditionError("unbounded condition")
    return 1.0 / (12.0 * d * cond_upper)


def separation_epsilon(f: IntPolynomial, cond_upper: float) -> float:
    """The neighborhood radius for which ``separation_lower_bound`` holds."""
    d = max(f.degree, 1)
    return 1.0 / (math.e * d * cond_upper)
