"""Condition numbers on [-1, 1] and certified global brackets.

The local condition of f at x is ||f||_1 / max(|f(x)|, |f'(x)|/d); large
values mean f is close to a polynomial with a singular zero at x.  The
global condition is its maximum over the closed interval [-1, 1].  The
bracket scans dyadic grids for it (Tonelli-Cueto and Tsigaridas,
"Condition numbers for the cube. I", ISSAC 2020, give the grid method and
the bound d on the slope of h = 1/cond), and bounds h from below over the
cell |y - x| <= r of each grid point x by the cell's reach: the larger of
order-K Taylor models (K = ``_ORDER``) of |f| and of |f'|/d with a
rigorous remainder (Makino and Berz, "Taylor models and other validated
functional inclusion methods", 2003; the centred forms of Neumaier,
"Interval methods for systems of equations", 1990).  By Taylor's theorem
with the Lagrange remainder, for y in the cell and in [-1, 1],

    |f(y)| >= |f(x)| - sum_{k=1..K} |f^(k)(x)| r^k / k!
              - max |f^(K+1)| r^(K+1) / (K+1)!,

and max |f^(K+1)| over [-1, 1] is at most ||f^(K+1)||_1 <= d^(K+1) ||f||_1,
since each derivative grows the 1-norm by at most a factor d.  The same
holds for f'/d, one derivative up, with the same remainder.  Over ||f||_1
a term of order k is at most (d r)^k / k!, and the remainder
(d r)^(K+1) / (K+1)! is below 2^-15 at d r <= 1/2.

The reach does both jobs of the bracket: it prunes the grid scan (a cell
whose reach lies above the level minimum leaves the active set) and it
certifies the upper end (the least reach over the active cells bounds h
from below on all of [-1, 1]).

Numerics policy: condition values only matter on a log scale downstream,
so each value is the correctly rounded float of an exactly computed
rational.  Grid scans run in vectorized floating point with a rigorous
error budget: one matrix product of a table of powers of x with the
coefficients of f^(k) / (d^k ||f||_1), k = 0..K+1 (``_scan_table``,
``_scan``); each such column has a 1-norm of at most 1, so one budget E
holds for all of them.  Floats only choose which points are evaluated
exactly: the few that could attain the grid maximum of the condition, and
the few cells that could attain the least reach.  Each exact evaluation is
one integer Horner pass for the Taylor coefficients f^(j)(x)/j!, j <= K+1,
at k/2^e (``_exact_values``), from which both the condition and the reach
follow.  The scan visits each grid point once: a level is the sorted merge
of the previous level's active points and their odd neighbours, the points
carried over keep their scanned values, and no dyadic is evaluated exactly
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import Dyadic
from .polynomial import IntPolynomial, ZeroPolynomialError


class UnboundedConditionError(ArithmeticError):
    """No finite upper bound on the global condition is available."""


_ONE = Dyadic(1)
# the order K of a cell's Taylor model
_ORDER = 5
# the slack of the float test of whether a level's exact upper end can
# meet the tolerance, so that rounding never skips a level that stops.
# The test changes no field of a bracket, but it saves exact evaluations:
# without it, 64 of 880 uniform tau = 32 brackets evaluate one more point
# exactly (one of them two more): 49 of 600 at d = 16, 64, 64 with
# rel_tol = 0.5 and max_grid = 2^26, 13 of 248 at d = 64 and 256 with the
# ``analyze`` defaults, and 2 of 32 at d = 256 and 512
_SAFETY = 1.0 + 2.0**-30


def _first_level(d: int) -> int:
    """The level of the first grid: spacing 2^-level at most 1/d (and at
    most 1/4), so that every cell has d r <= 1/2."""
    return max(2, (d - 1).bit_length())


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
    return _local_condition(_exact_values(f.coeffs, x.num, x.exp), f.degree, f.one_norm())


def _exact_values(coeffs: tuple, k: int, e: int) -> tuple[int, list[int]]:
    """(e', T) for f with coefficients ``coeffs``, of degree d >= 1, at
    x = k/2^e: the exponent e' of x in lowest terms and, with q = 2^e',
    T[j] = q^(d-j) f^(j)(x)/j! for j = 0..K+1.

    One integer Horner pass with K + 2 accumulators (the repeated
    synthetic division by x - k/q, scaled by powers of q).  The exponent is
    reduced first, so that the same point gives the same integers at every
    level.
    """
    if k:
        shift = min(e, (k & -k).bit_length() - 1)
        k, e = k >> shift, e - shift
    else:
        e = 0
    d = len(coeffs) - 1
    taylor = [coeffs[d]] + [0] * (_ORDER + 1)
    upward = range(_ORDER + 1, 0, -1)
    for i in range(d - 1, -1, -1):
        for j in upward:
            taylor[j] = taylor[j] * k + taylor[j - 1]
        taylor[0] = taylor[0] * k + (coeffs[i] << (e * (d - i)))
    return e, taylor


def _local_condition(values: tuple[int, list[int]], d: int, norm: int) -> float:
    """cond(f, x) from ``_exact_values``: D/H with H = max(d |T0|, q |T1|)
    and D = d ||f||_1 q^d, correctly rounded (one int true division); +inf
    when H = 0 or the quotient exceeds the float range."""
    e, taylor = values
    inv = max(d * abs(taylor[0]), abs(taylor[1]) << e)
    if not inv:
        return math.inf
    try:
        return ((d * norm) << (e * d)) / inv
    except OverflowError:
        return math.inf


def _reach(values: tuple[int, list[int]], d: int, norm: int, m: int) -> tuple[int, int]:
    """(A, s) such that A / (c 2^s), c = (K+1)! d ||f||_1, is the exact
    reach of the cell of radius r = 2^-m around x, given
    ``_exact_values`` at x: the Taylor model's lower bound of 1/cond over
    the cell (module docstring).

    With T and q = 2^e from ``_exact_values``, f^(k)(x) r^k / k! is
    T_k q^k / (q^d 2^(mk)).  So over the denominator d ||f||_1 q^d 2^(mK)
    the model of |f| is d (|T_0| 2^(mK) - sum_k |T_k| q^k 2^(m(K-k))) and
    that of |f'|/d is |T_1| q 2^(mK) - sum_k (k+1) |T_(k+1)| q^(k+1)
    2^(m(K-k)), the sums over k = 1..K.  The larger of the two and the
    remainder d^(K+1) r^(K+1) / (K+1)! are brought to the common
    denominator c q^d 2^(m(K+1)); no gcd is taken.
    """
    e, taylor = values
    order = _ORDER
    t = [abs(v) for v in taylor]
    model_f = t[0] << (m * order)
    model_g = t[1] << (e + m * order)
    for k in range(1, order + 1):
        model_f -= t[k] << (e * k + m * (order - k))
        model_g -= ((k + 1) * t[k + 1]) << (e * (k + 1) + m * (order - k))
    fact = math.factorial(order + 1)
    den = (d * norm) << (e * d)
    return ((fact * max(d * model_f, model_g)) << m) - d ** (order + 1) * den, e * d + m * (order + 1)


def _float_reach(values: np.ndarray, d: int, radius: float) -> np.ndarray:
    """The reach of each cell of ``radius`` from the absolute scanned
    columns ``values`` (``_scan_table``): the float counterpart of
    ``_reach``, within reach_err of it (``global_condition_bracket``)."""
    t = d * radius
    weights = [t**k / math.factorial(k) for k in range(1, _ORDER + 2)]
    # the Taylor terms of f (column 0) and of f'/d (column 1), k = 1..K
    models = np.zeros((_ORDER + 1, 2))
    models[:-1, 0] = models[1:, 1] = weights[:-1]
    return (values[:, :2] - values[:, 1:] @ models).max(axis=1) - weights[-1]


def _round_up_quotient(num: int, den: int) -> float:
    """The least float >= num/den for num > 0; +inf when den <= 0 or the
    quotient exceeds the float range."""
    if den <= 0:
        return math.inf
    try:
        quotient = num / den
    except OverflowError:
        return math.inf
    a, b = quotient.as_integer_ratio()
    return math.nextafter(quotient, math.inf) if a * den < num * b else quotient


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
    spacing at most 1/d (``_first_level``) and halving until
    upper <= (1 + rel_tol) lower or the grid would exceed ``max_grid``
    points (the initial grid is always evaluated).  Write h = 1/cond,
    delta for the spacing, r = delta/2 for the radius of a grid point's
    cell and t = d r <= 1/2.

    The reach of a cell is its order-K Taylor model (module docstring;
    ``_reach`` exactly, ``_float_reach`` in floats).  In the scaled
    Taylor coefficients c_k = f^(k)(x) / (d^k ||f||_1) it reads

        max(|c_0| - sum_k |c_k| w_k, |c_1| - sum_k |c_(k+1)| w_k) - w_(K+1),

    with w_k = t^k / k! and k = 1..K.  Since every |c_k| <= 1, the terms
    past the first, the remainder included, sum to at most
    e^t - 1 - t < t^2.  So the reach is at least the first-order bound
    max(|c_0|, |c_1|) - r (d max(|c_1|, |c_2|) + d t) = h - t max(|c_1|,
    |c_2|) - t^2, whose drift t^2 is d^2 r over the cell.  That bound, with
    its slope capped at d, is not used: only where the cap binds, at
    max(|c_1|, |c_2|) + t > 1, as at x = +-1 for f = x^d, can it be the
    larger, and on the ``mc-steps`` mix, the ``analyze`` corpus, the CLI
    goldens and the ``scripts/bench_bracket.py`` inputs no cell's
    first-order bound exceeds its Taylor model.

    The float scan carries the budget E of ``_scan`` on each c_k.  So the
    float Taylor term is within E (1 + sum_k w_k) < E e^t of the exact
    one, and its rounding adds less than 2^-46: every float reach lies
    within reach_err = E e^t + 2^-46 of the exact reach.

    ``lower`` is the exact maximum of the condition over the final grid.
    Three devices keep that affordable without changing it:

    * the float h = max(|c_0|, |c_1|) is within E of h, and only points
      whose float h is within 2E of the level minimum are evaluated
      exactly; no other point can attain the grid minimum of h, and a
      point evaluated at a coarser level is not evaluated again, since its
      value is already in the maximum;
    * each level is the refinement of an active set of the previous one
      (``_children``): the even child 2a of a point a is that point
      itself, so it keeps the scanned values, and only the odd children
      are scanned in float;
    * a cell leaves the active set once its float reach exceeds the level
      minimum by E + reach_err.  Every point y of the cell then has
      h(y) >= its exact reach > level minimum + E, which is at least the
      exact grid minimum, so dropped cells cannot change the maximum at
      any later level.  The point attaining the minimum stays, since its
      reach is at most its h.  An even child's cell lies inside its
      parent's, so its reach, taken at the child's radius, still holds.

    ``upper`` is 1/B for B the least exact reach over the active cells of
    the final level.  Why h >= B on all of [-1, 1]:

    * on an active cell, h >= its reach >= B;
    * the exact grid minimum G of the level is attained at an active
      point, and its reach is at most G, so B <= G;
    * a cell dropped at an earlier level l lies above m_l + E, and
      m_l + E bounds the exact grid minimum at l, which bounds it at
      every finer level, so that cell lies above G >= B;
    * the cells of the children of a kept point cover the point's own
      cell, so the active cells of the final level cover everything the
      dropped cells do not.

    B is a rational; ``upper`` is the least float >= 1/B, so rounding
    never makes it smaller, and +inf when B <= 0.  The exact reach is
    evaluated only for the cells whose float reach is within 2 reach_err
    of the least float reach, which include the cell of least exact reach,
    and only where it can stop the loop: when the bound least float reach
    + reach_err >= B could meet the tolerance (with the slack ``_SAFETY``
    for rounding), and at the last level the budget allows.

    Floats thus decide the active set, and nothing else: ``lower``, B and
    the stopping level are functions of the exact values over it.  Two
    float evaluators within the budget E can keep different cells only
    where a cell's exact reach lies between a level's exact grid minimum G
    and G + 2E + 2 reach_err, so every field is a function of exact
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

    coeffs, norm = f.coeffs, f.one_norm()
    table = _scan_table(coeffs, norm)
    scale = math.factorial(_ORDER + 1) * d * norm  # c of ``_reach``
    err = (4.0 * d + 16.0) * 2.0**-53  # the budget E of ``_scan``

    def scan(ks: np.ndarray, level: int) -> np.ndarray:
        return np.abs(_scan(table, ks.astype(float) * 2.0**-level))

    evaluated = {}  # x -> ``_exact_values`` at x, for every point evaluated

    def exact(k: int, level: int) -> tuple[int, list[int]]:
        x = k * 2.0**-level
        if x not in evaluated:
            evaluated[x] = _exact_values(coeffs, k, level)
        return evaluated[x]

    level = _first_level(d)
    ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
    values = scan(ks, level)
    levels, scanned = 1, ks.size
    lower = 0.0

    while True:
        grid_size = (1 << (level + 1)) + 1
        delta = 2.0**-level
        radius = delta / 2.0
        inv_cond = np.maximum(values[:, 0], values[:, 1])
        level_min = float(inv_cond.min())
        for idx in np.nonzero(inv_cond <= level_min + 2.0 * err)[0]:
            lower = max(lower, _local_condition(exact(int(ks[idx]), level), d, norm))

        reach = _float_reach(values, d, radius)
        reach_err = err * math.exp(d * radius) + 2.0**-46
        least = float(reach.min()) + reach_err  # at least B
        last = (1 << (level + 2)) + 1 > max_grid
        upper = math.inf
        if math.isfinite(lower) and least > 0 and (last or least * (1.0 + rel_tol) * lower * _SAFETY >= 1.0):
            reaches = [
                _reach(exact(int(ks[idx]), level), d, norm, level + 1)
                for idx in np.nonzero(reach <= least + reach_err)[0]
            ]
            shift = max(s for _, s in reaches)
            upper = _round_up_quotient(scale << shift, min(a << (shift - s) for a, s in reaches))
        work = (levels, scanned, len(evaluated))
        if math.isfinite(upper) and upper <= (1.0 + rel_tol) * lower:
            return ConditionBracket(lower, upper, grid_size, delta, True, *work)
        if last:
            # report the last evaluated grid
            return ConditionBracket(lower, upper, grid_size, delta, False, *work)

        keep = reach <= level_min + err + reach_err
        ks, values = ks[keep], values[keep]
        level += 1
        ks, odd = _children(ks, level)
        parents, values = values, np.empty((ks.size, values.shape[1]))
        values[odd] = scan(ks[odd], level)
        values[~odd] = parents
        levels += 1
        scanned += int(odd.sum())


def _children(ks: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices at ``level`` of the cells around the sorted, distinct
    indices ``ks`` of level - 1, in increasing order, and the mask of the
    odd ones.

    Point a has the children 2a - 1, 2a, 2a + 1.  Laid out row by row they
    are sorted, so an entry is kept when it lies in [-2^level, 2^level]
    and differs from its left neighbour.  The even child 2a is the point a
    itself, and every parent keeps it, so the even entries follow ``ks``.
    """
    children = (2 * ks[:, None] + np.array([-1, 0, 1])).ravel()
    kept = np.abs(children) <= 1 << level
    kept[1:] &= children[1:] != children[:-1]
    out = children[kept]
    return out, (out & 1) == 1


def _scan_table(coeffs: tuple, norm: int) -> np.ndarray:
    """The (d+1) x (K+2) table whose row j, column k holds the coefficient
    of x^j in f^(k) / (d^k ||f||_1), k = 0..K+1, for f of degree d >= 1
    with coefficients ``coeffs`` and 1-norm ``norm``.

    Column 0 is correctly rounded: one integer true division per entry.
    Column k is column k-1 shifted up one row, its row j
    times (j+1)/d (x^(j+1) differentiates to (j+1) x^j): two roundings per
    column.  So an entry of column k is within gamma_(2k+1) of its exact
    value (gamma_n = n u / (1 - n u), u = 2^-53), and the exact column has
    a 1-norm of at most 1, since ||f^(k)||_1 <= d^k ||f||_1.
    """
    d = len(coeffs) - 1
    table = np.zeros((d + 1, _ORDER + 2))
    table[:, 0] = [c / norm for c in coeffs]
    steps = np.arange(1, d + 1) / d
    for k in range(1, min(_ORDER + 1, d) + 1):
        np.multiply(table[1 : d + 2 - k, k - 1], steps[: d + 1 - k], out=table[: d + 1 - k, k])
    return table


_BLOCK = 1024  # points per power table; at d = 1024 one table is 8 MiB


def _scan(table: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``table``'s polynomials at ``xs``: row i is powers(xs[i]) @ table.

    The points go in blocks of ``_BLOCK``.  Each block builds its power
    table by doubling, x^(m + i) = x^i x^m with x^m = (x^(m/2))^2, in
    Fortran order so that each doubling is one multiply of contiguous
    columns, then takes one matrix product with ``table``.

    Error budget, at |x| <= 1 and d + 1 table rows, for the table built
    by ``_scan_table``: each value is within E of the exact value of its
    unrounded column, where E = (4d + 16) u and u = 2^-53 (every column
    has a 1-norm of at most 1).

    * The table's entries are within gamma_(2K+3) of their exact values.
    * Each power x^j is the product of two earlier ones, and the chain
      behind it holds at most j - 1 roundings, so it is within gamma_j of
      x^j, gamma_n = n u / (1 - n u).
    * The dot product of d + 1 terms is within gamma_(d+1) of the exact
      sum of its products, in any summation order and with or without
      fused multiply-adds.
    * Gradual underflow in the table, the powers and the products adds
      less than (2d + 2K + 6) 2^-1074 in all.

    Together that is below (2d + 2K + 5) u = (2d + 15) u for d <= 2^20,
    inside E.
    """
    n = table.shape[0]
    out = np.empty((xs.size, table.shape[1]))
    buffer = np.empty((min(xs.size, _BLOCK), n), order="F")
    for start in range(0, xs.size, _BLOCK):
        x = xs[start : start + _BLOCK]
        powers = buffer[: x.size]
        powers[:, 0] = 1.0
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
    """The neighborhood radius for which ``separation_lower_bound`` holds.

    No repeated root of f lies within eps = 1/(e d U) of [-1, 1] when U
    bounds the global condition from above.  Suppose z did, with
    f(z) = f'(z) = 0 and d >= 2, and let x be the point of [-1, 1]
    nearest to z.  U >= cond >= 1, so (d - 2) eps < 1/e, and on the
    segment [z, x] |f''| <= d (d - 1) ||f||_1 (1 + eps)^(d-2)
    < 1.45 d^2 ||f||_1.  Taylor's theorem at z then gives
    |f'(x)|/d < 1.45 d eps ||f||_1 < 0.54 ||f||_1 / U and
    |f(x)| < 0.73 d^2 eps^2 ||f||_1 < 0.1 ||f||_1 / U, so
    cond(f, x) > 1.8 U, against U.
    """
    d = max(f.degree, 1)
    return 1.0 / (math.e * d * cond_upper)
