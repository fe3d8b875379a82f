"""Condition numbers on [-1, 1] and certified global brackets.

The local condition of f at x is ||f||_1 / max(|f(x)|, |f'(x)|/d); large
values mean f is close to a polynomial with a singular zero at x.  The
global condition is its maximum over the closed interval [-1, 1].  Its
reciprocal h = 1/cond moves no faster than d over [-1, 1], and over a
cell of radius r around x no faster than
max(|f'(x)|, |f''(x)|/d) / ||f||_1 + d^2 r, since each derivative grows
the 1-norm by at most a factor d (Tonelli-Cueto and Tsigaridas,
"Condition numbers for the cube. I", ISSAC 2020, give the grid method
and the d-Lipschitz bound; this is its first-order Taylor refinement).
That local slope does both jobs of the bracket: it prunes the grid scan
(a cell far above the level minimum leaves the active set) and it
certifies the upper end (h over a cell is at least its centre value less
r times the cell's slope, so the least such reach over the active cells
bounds h from below on all of [-1, 1]).  Near a minimum of h the local
slope is far below d, so few levels reach a sharp upper end.

Numerics policy: condition values only matter on a log scale downstream,
so each value is the correctly rounded float of an exactly computed
rational.  Grid scans run in vectorized floating point with a rigorous
error budget: one matrix product of a table of powers of x with the
correctly rounded coefficients of f, f'/d and f''/d over ||f||_1
(``_scan``).  Floats only choose which points are evaluated exactly: the
few that could attain the grid maximum of the condition, and the few
cells that could attain the least reach.  Each exact evaluation is one
integer Horner pass for f, f' and f'' at k/2^e (``_exact_values``).  The
scan visits each grid point once: a level is the sorted merge of the
previous level's active points and their odd neighbours, the points
carried over keep their scanned values and slopes, and no dyadic is
evaluated exactly twice.
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
# rounds the float slope bounds up, and is the slack of the float test of
# whether a level's exact upper end can meet the tolerance
_SAFETY = 1.0 + 2.0**-30


def local_condition(f: IntPolynomial, x: Dyadic) -> float:
    """cond(f, x) = ||f||_1 / max(|f(x)|, |f'(x)|/d) for x in [-1, 1].

    The quotient is exact up to one correctly rounded division
    (``_exact_values``).  Returns +inf exactly when f(x) = f'(x) = 0.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if abs(x) > _ONE:
        raise ValueError(f"point {x} outside [-1, 1]")
    if f.degree == 0:
        return 1.0
    inv, _, den = _exact_values(f.coeffs, f.one_norm(), x.num, x.exp)
    return _local_condition(inv, den)


def _exact_values(coeffs: tuple, norm: int, k: int, e: int) -> tuple[int, int, int]:
    """(H, S, D) with 1/cond(f, x) = H/D and
    max(|f'(x)|, |f''(x)|/d) / ||f||_1 = S/D at x = k/2^e, for f of degree
    d >= 1 with coefficients ``coeffs`` and 1-norm ``norm``.

    One integer Horner pass, with q = 2^e, gives F0 = q^d f(x),
    F1 = q^(d-1) f'(x) and F2 = q^(d-2) f''(x)/2; then
    H = max(d |F0|, q |F1|), S = max(d q |F1|, 2 q^2 |F2|) and
    D = d ||f||_1 q^d.  The exponent is reduced first, so that the same
    point gives the same integers at every level.
    """
    if k:
        shift = min(e, (k & -k).bit_length() - 1)
        k, e = k >> shift, e - shift
    else:
        e = 0
    d = len(coeffs) - 1
    f0, f1, f2 = coeffs[d], 0, 0
    for i in range(d - 1, -1, -1):
        f2 = f2 * k + f1
        f1 = f1 * k + f0
        f0 = f0 * k + (coeffs[i] << (e * (d - i)))
    f1 = abs(f1)
    inv = max(d * abs(f0), f1 << e)
    slope = max((d * f1) << e, abs(f2) << (2 * e + 1))
    return inv, slope, (d * norm) << (e * d)


def _local_condition(inv: int, den: int) -> float:
    """The condition D/H from ``_exact_values``, correctly rounded (int
    true division), +inf when H = 0 or the quotient exceeds the float
    range."""
    if not inv:
        return math.inf
    try:
        return den / inv
    except OverflowError:
        return math.inf


def _reach(values: tuple[int, int, int], d: int, m: int) -> Fraction:
    """h(x) - r min(s(x) + d^2 r, d), exactly, for a cell of radius
    r = 2^-m around x, where h = H/D and s = S/D are ``_exact_values``:
    a lower bound of 1/cond over the cell (``_cell_slope``)."""
    inv, slope, den = values
    drop = min((slope << m) + d * d * den, (d * den) << m)
    return Fraction((inv << (2 * m)) - drop, den << (2 * m))


def _round_up_reciprocal(bound: Fraction) -> float:
    """The least float >= 1/bound; +inf when bound <= 0 or 1/bound
    exceeds the float range."""
    if bound <= 0:
        return math.inf
    num, den = bound.numerator, bound.denominator
    try:
        upper = den / num
    except OverflowError:
        return math.inf
    a, b = upper.as_integer_ratio()
    return math.nextafter(upper, math.inf) if a * num < den * b else upper


@dataclass
class ConditionBracket:
    """Certified enclosure lower <= cond over [-1,1] <= upper.

    ``lower`` is the exact maximum of the condition over the final dyadic
    grid; ``upper`` is 1/B, rounded up, for the certified lower bound B of
    1/cond that the final grid's cells give, and +inf when B <= 0.
    ``achieved`` is False when the requested relative tolerance was not
    reached before the grid budget ran out.

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
    spacing at most 1/(4 d) and halving until upper <= (1 + rel_tol)
    lower or the grid would exceed ``max_grid`` points (the initial grid
    is always evaluated).  Write h = 1/cond, delta for the spacing and
    r = delta/2 for the radius of a grid point's cell.

    ``lower`` is the exact maximum of the condition over the final grid.
    Three devices keep that affordable without changing it:

    * the float scan carries the rigorous error budget E of ``_scan``,
      and only points whose scanned h is within 2E of the level minimum
      are evaluated exactly; no other point can attain the grid minimum
      of h, and a point evaluated at a coarser level is not evaluated
      again, since its value is already in the maximum;
    * each level is the refinement of an active set of the previous one
      (``_children``): the even child 2a of a point a is that point
      itself, so it keeps the scanned h and slope, and only the odd
      children are scanned in float;
    * a cell leaves the active set once its float reach hf(x) - L r
      exceeds the level minimum by 2E, where L is the cell's own slope
      bound (``_cell_slope``) and hf the scanned h.  Every point y of the
      cell then has h(y) >= hf(x) - E - L r > level minimum + E, which is
      at least the exact grid minimum, so dropped cells cannot change the
      maximum at any later level.  The point attaining the minimum stays
      and carries its value.  An even child's cell lies inside its
      parent's, so the parent's slope, taken at the child's radius, still
      holds for it.

    ``upper`` is 1/B for B the least exact reach h(x) - r S(x) over the
    active cells of the final level, where S(x) = min(s(x) + d^2 r, d)
    is the exact slope bound of ``_cell_slope`` and
    s = max(|f'|, |f''|/d) / ||f||_1.  Why h >= B on all of [-1, 1]:

    * on an active cell, h >= its reach >= B (``_cell_slope``);
    * the exact grid minimum G of the level is attained at an active
      point, and its reach is at most G, so B <= G;
    * a cell dropped at an earlier level l lies above m_l + E, and
      m_l + E bounds the exact grid minimum at l, which bounds it at
      every finer level, so that cell lies above G >= B;
    * the cells of the children of a kept point cover the point's own
      cell, so the active cells of the final level cover everything the
      dropped cells do not.

    B is a rational; ``upper`` is the least float >= 1/B, so rounding
    never makes it smaller, and +inf when B <= 0.

    The float reach chooses which cells are evaluated exactly.  Its error
    budget: hf is within E of h; the scanned slope, with its budget
    d^2 E added, is at least s and at most s + (d^2 + d) E + 2 d u, so L
    is at least S and r (L - S) is below (d + 2) E / 8 + 2^-33 for
    r <= 1/(8 d) (the second term is the 2^-30 rounding-up of
    ``_cell_slope``); r is a power of two and the reach's one subtraction
    rounds by at most u < E / 8.  The float reach is thus at most
    E + E/8 above the exact one and at most (11/8 + d/8) E + 2^-33 below
    it, and every cell whose float reach is within
    reach_err = (3 + d/4) E + 2^-32 of the least float reach is
    evaluated: the cell of least exact reach is among them, and B is at
    most the least float reach plus reach_err.  The exact reach is
    computed only where it can stop the loop, that is when that bound on
    B could meet the tolerance (with the slack ``_SAFETY`` for rounding),
    and at the last level the budget allows.

    Floats thus decide the active set as well as the exact evaluations.
    Two float evaluators within the budget E can keep different cells
    only where a cell's exact reach lies within 5E + d E/8 + 2^-33 of the
    level's grid minimum, so every field is a function of exact
    arithmetic unless such a coincidence occurs; the tests check the
    fields under a second evaluator.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    d = f.degree
    if d == 0:
        return ConditionBracket(1.0, 1.0, 1, 2.0, True)

    table = _scan_table(f)
    coeffs, norm = f.coeffs, f.one_norm()
    err = (4.0 * d + 16.0) * 2.0**-53  # the budget E of ``_scan``
    # d |f'/d| and |f''/d| (over ||f||_1) are each off by at most d E,
    # well inside the slope budget d^2 E
    slope_err = d * d * err
    reach_err = (3.0 + d / 4.0) * err + 2.0**-32

    def scan(ks: np.ndarray, level: int) -> np.ndarray:
        """Columns: the scanned h and the slope at the point, both over
        ||f||_1, the slope with its float budget."""
        values = np.abs(_scan(table, ks.astype(float) * 2.0**-level))
        cells = np.empty((ks.size, 2))
        np.maximum(values[:, 0], values[:, 1], out=cells[:, 0])
        np.maximum(d * values[:, 1], values[:, 2], out=cells[:, 1])
        cells[:, 1] += slope_err
        return cells

    evaluated = {}  # x -> ``_exact_values`` at x, for every point evaluated

    def exact(k: int, level: int) -> tuple[int, int, int]:
        x = k * 2.0**-level
        if x not in evaluated:
            evaluated[x] = _exact_values(coeffs, norm, k, level)
        return evaluated[x]

    level = max(2, (4 * d - 1).bit_length())
    ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
    cells = scan(ks, level)
    levels, scanned = 1, ks.size
    lower = 0.0

    while True:
        grid_size = (1 << (level + 1)) + 1
        delta = 2.0**-level
        radius = delta / 2.0
        inv_cond = cells[:, 0]
        level_min = float(inv_cond.min())
        for idx in np.nonzero(inv_cond <= level_min + 2.0 * err)[0]:
            inv, _, den = exact(int(ks[idx]), level)
            lower = max(lower, _local_condition(inv, den))

        reach = inv_cond - _cell_slope(cells[:, 1], d, radius) * radius
        least = float(reach.min()) + reach_err  # at least B
        last = (1 << (level + 2)) + 1 > max_grid
        upper = math.inf
        if math.isfinite(lower) and least > 0 and (last or least * (1.0 + rel_tol) * lower * _SAFETY >= 1.0):
            bound = min(_reach(exact(int(ks[idx]), level), d, level + 1) for idx in np.nonzero(reach <= least)[0])
            upper = _round_up_reciprocal(bound)
        work = (levels, scanned, len(evaluated))
        if math.isfinite(upper) and upper <= (1.0 + rel_tol) * lower:
            return ConditionBracket(lower, upper, grid_size, delta, True, *work)
        if last:
            # report the last evaluated grid
            return ConditionBracket(lower, upper, grid_size, delta, False, *work)

        keep = reach <= level_min + 2.0 * err
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
