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

What does not depend on f is built once per degree and cached read-only
(``_constants``, a ``BoundedCache`` as the solver's constants are: at most
``_CONSTANTS_BYTES``, the least recently used degree dropped first): the
first grid's indices, points and power table, and the row offsets and
derivative factors that turn the correctly rounded column 0 into the scan
table.  The Taylor-model matrix of
``_float_reach`` is cached per d r (``_taylor_model``).  A cached entry
holds the same floats a fresh build would, and floats only choose the
points evaluated exactly, so the caches leave every field of a bracket and
its work counts as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from operator import lshift
from typing import NamedTuple

import numpy as np

from . import _json
from ._cache import bounded_cache
from .dyadic import Dyadic
from .polynomial import IntPolynomial, ZeroPolynomialError


class UnboundedConditionError(ArithmeticError):
    """No finite upper bound on the global condition is available."""


_ONE = Dyadic(1)
# the order K of a cell's Taylor model
_ORDER = 5


# the finest grid level: its indices |k| <= 2^53, their doubles in
# ``_children`` and the points k 2^-level are exact in int64 and float64
_MAX_LEVEL = 53


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
    return _local_condition(_exact_values(f.coeffs, x), f.degree, f.one_norm())


def _exact_values(coeffs: tuple, x: Dyadic) -> tuple[int, list[int]]:
    """(e, T) for f with coefficients ``coeffs``, of degree d >= 1, at
    the dyadic x = k/2^e: with q = 2^e, T[j] = q^(d-j) f^(j)(x)/j! for
    j = 0..K+1.

    One integer Horner pass with K + 2 accumulators (the repeated
    synthetic division by x - k/q, scaled by powers of q).  k/2^e is the
    normal form of ``Dyadic``, so the same point gives the same integers
    at every level.  The kernel is written for K = 5: its seven
    accumulators are locals, and coefficient i enters shifted by
    e (d - i), the shifts taken by one ``map``; the check below the
    function stops the import if ``_ORDER`` changes.
    """
    k, e = x.num, x.exp
    d = len(coeffs) - 1
    t0, t1, t2, t3, t4, t5, t6 = coeffs[d], 0, 0, 0, 0, 0, 0
    for c in map(lshift, coeffs[d - 1 :: -1], count(e, e)):
        t6 = t6 * k + t5
        t5 = t5 * k + t4
        t4 = t4 * k + t3
        t3 = t3 * k + t2
        t2 = t2 * k + t1
        t1 = t1 * k + t0
        t0 = t0 * k + c
    return e, [t0, t1, t2, t3, t4, t5, t6]


if _ORDER != 5:
    raise ImportError("_exact_values holds K + 2 = 7 accumulators: it is written for _ORDER = 5")


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
    models, remainder = _taylor_model(d * radius)
    return (values[:, :2] - values[:, 1:] @ models).max(axis=1) - remainder


@lru_cache(maxsize=128)
def _taylor_model(t: float) -> tuple[np.ndarray, float]:
    """The (K+1) x 2 matrix of ``_float_reach``'s Taylor terms, and its
    remainder, at t = d r, with w_k = t^k / k!: column 0 holds w_k for
    |f| (column k of the scan), column 1 holds w_k for |f'|/d (column
    k + 1), and the remainder is w_(K+1).

    t is exact (r is a power of two), so the entries are those of every
    call with the same d and level.  Read-only and cached: at most 128
    entries of 12 floats, a few tens of KB in all.
    """
    weights = [t**k / math.factorial(k) for k in range(1, _ORDER + 2)]
    models = np.zeros((_ORDER + 1, 2))
    models[:-1, 0] = models[1:, 1] = weights[:-1]
    models.flags.writeable = False
    return models, weights[-1]


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
    reached before the grid budget or the finest grid (spacing 2^-53) ran
    out, or when a grid point is singular (``lower`` +inf), where the scan
    stops.

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
        """The bracket's fields, each +inf as None (``_json.strict``)."""
        return _json.strict(
            {
                "lower": self.lower,
                "upper": self.upper,
                "lg_upper": math.log2(self.upper),
                "grid_size": self.grid_size,
                "delta": self.delta,
                "achieved": self.achieved,
            }
        )


def global_condition_bracket(
    f: IntPolynomial,
    rel_tol: float = 0.5,
    max_grid: int = 1 << 22,
) -> ConditionBracket:
    """Bracket the maximum condition over [-1, 1].

    Scans dyadic grids x = k 2^-level, |k| <= 2^level, starting at
    spacing at most 1/d (``_first_level``) and halving until
    upper <= (1 + rel_tol) lower, or the grid would exceed ``max_grid``
    points, or the spacing reaches 2^-53 (``_MAX_LEVEL``), the finest at
    which every index and point is exact in int64 and float64 (the
    initial grid is always evaluated, whatever the positive budget).
    Exact values are kept per point, keyed by its ``Dyadic`` k/2^level.
    Write h = 1/cond, delta for the spacing, r = delta/2 for the radius of
    a grid point's cell and t = d r <= 1/2.

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
    never makes it smaller, and +inf when B <= 0.  At every level the
    exact reach is evaluated only for the cells whose float reach is
    within 2 reach_err of the least float reach, which include the cell of
    least exact reach.

    Floats thus decide the active set, and nothing else: ``lower``, B and
    the stopping level are functions of the exact values over it.  Two
    float evaluators within the budget E can keep different cells only
    where a cell's exact reach lies between a level's exact grid minimum G
    and G + 2E + 2 reach_err, so every field is a function of exact
    arithmetic unless such a coincidence occurs; the tests check the
    fields under a second evaluator.

    A grid point with f(x) = f'(x) = 0 makes ``lower`` +inf, and then the
    scan stops at that level with ``upper`` +inf and ``achieved`` False:
    the exact grid minimum G is 0 there, B <= G, and no finer grid can
    make either end finite.

    Per call the bracket builds only what depends on f: column 0 of the
    scan table, the scans of refined levels and the exact evaluations.
    The first grid's points and power table and the table's derivative
    factors come from the per-degree cache (``_constants``), and each
    level's Taylor-model matrix from ``_taylor_model``.  They are the
    floats that a build inside the call would give, and floats choose
    only the active set, so every field and work count is as without the
    caches.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if max_grid < 1:
        raise ValueError("max_grid must be positive")
    d = f.degree
    if d == 0:
        return ConditionBracket(1.0, 1.0, 1, 2.0, True)

    coeffs, norm = f.coeffs, f.one_norm()
    first = _constants(d)
    table = _scan_table(coeffs, norm)
    scale = math.factorial(_ORDER + 1) * d * norm  # c of ``_reach``
    err = (4.0 * d + 16.0) * 2.0**-53  # the budget E of ``_scan``

    evaluated = {}  # x -> ``_exact_values`` at x, for every point evaluated

    def exact(k: int, level: int) -> tuple[int, list[int]]:
        x = Dyadic(k, level)
        if x not in evaluated:
            evaluated[x] = _exact_values(coeffs, x)
        return evaluated[x]

    level, ks = first.level, first.ks
    values = np.abs(_scan(table, first.xs, first.powers))
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
        if lower == math.inf:
            # a singular grid point: no finer grid can bound the condition
            return ConditionBracket(lower, math.inf, grid_size, delta, False, levels, scanned, len(evaluated))

        reach = _float_reach(values, d, radius)
        reach_err = err * math.exp(d * radius) + 2.0**-46
        least = float(reach.min()) + reach_err  # at least B
        reaches = [
            _reach(exact(int(ks[idx]), level), d, norm, level + 1)
            for idx in np.nonzero(reach <= least + reach_err)[0]
        ]
        shift = max(s for _, s in reaches)
        upper = _round_up_quotient(scale << shift, min(a << (shift - s) for a, s in reaches))
        last = level >= _MAX_LEVEL or (1 << (level + 2)) + 1 > max_grid
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
        xs = ks[odd] * 2.0**-level
        values[odd] = np.abs(_scan(table, xs))
        values[~odd] = parents
        levels += 1
        scanned += xs.size


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
    Row j of column k is coefficient j + k of column 0 times the
    derivative factor (j+1) (j+2) ... (j+k) / d^k, itself correctly
    rounded, or 0 when j + k > d; the factors and the row offsets j + k
    are constants of the degree (``_constants``), so the table is one
    gather and one multiply.  An entry is thus within gamma_3 of its
    exact value (gamma_n = n u / (1 - n u), u = 2^-53), and the exact
    column has a 1-norm of at most 1, since ||f^(k)||_1 <= d^k ||f||_1.
    """
    constants = _constants(len(coeffs) - 1)
    column = np.array([c / norm for c in coeffs] + [0.0])
    return column[constants.rows] * constants.factors


_BLOCK = 1024  # points per power table; at d = 1024 one table is 8 MiB


def _scan(table: np.ndarray, xs: np.ndarray, powers: np.ndarray | None = None) -> np.ndarray:
    """``table``'s polynomials at ``xs``: row i is powers(xs[i]) @ table.

    The points go in blocks of ``_BLOCK``.  Each block builds its power
    table by doubling (``_powers``), unless ``powers`` holds the power
    table of all of ``xs`` already, as for the first grid
    (``_constants``), then takes one matrix product with ``table``.

    Error budget, at |x| <= 1 and d + 1 table rows, for the table built
    by ``_scan_table``: each value is within E of the exact value of its
    unrounded column, where E = (4d + 16) u and u = 2^-53 (every column
    has a 1-norm of at most 1).

    * The table's entries are within gamma_3 of their exact values.
    * Each power x^j is the product of two earlier ones, and the chain
      behind it holds at most j - 1 roundings, so it is within gamma_j of
      x^j, gamma_n = n u / (1 - n u).
    * The dot product of d + 1 terms is within gamma_(d+1) of the exact
      sum of its products, in any summation order and with or without
      fused multiply-adds.
    * Gradual underflow in the table, the powers and the products adds
      less than (2d + 2K + 6) 2^-1074 in all.

    Together that is below (2d + 5) u for d <= 2^20, inside E.  E is
    looser than that: it is the budget the pruning margins are drawn
    with, and a tighter one would move the active sets.
    """
    n = table.shape[0]
    out = np.empty((xs.size, table.shape[1]))
    if powers is None:
        buffer = np.empty((min(xs.size, _BLOCK), n), order="F")
    for start in range(0, xs.size, _BLOCK):
        x = xs[start : start + _BLOCK]
        block = _powers(x, buffer[: x.size]) if powers is None else powers[start : start + _BLOCK]
        np.matmul(block, table, out=out[start : start + x.size])
    return out


def _powers(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, a Fortran-order array of x.size rows, filled with x^j in
    column j by doubling, x^(m + i) = x^i x^m with x^m = (x^(m/2))^2, so
    that each doubling is one multiply of contiguous columns."""
    n = out.shape[1]
    out[:, 0] = 1.0
    out[:, 1] = x
    m = 2
    while m < n:
        top = out[:, m // 2] * out[:, m // 2]
        width = min(m, n - m)
        np.multiply(out[:, :width], top[:, None], out=out[:, m : m + width])
        m *= 2
    return out


class _Constants(NamedTuple):
    """The bracket's constants of one degree d (``_constants``):
    the first grid's level, indices ``ks`` and points ``xs``; its power
    table ``powers`` (``_powers``), or None when it would take more than
    ``_POWERS_BYTES``; the row offsets ``rows`` and derivative factors
    ``factors`` of ``_scan_table``; and ``nbytes``, what they hold in
    all."""

    level: int
    ks: np.ndarray
    xs: np.ndarray
    powers: np.ndarray | None
    rows: np.ndarray
    factors: np.ndarray
    nbytes: int


_CONSTANTS_BYTES = 40 << 20  # the entries kept, least recently used dropped first
_POWERS_BYTES = _CONSTANTS_BYTES // 2  # the largest power table kept: 2049 x 1025 at d = 1024


@bounded_cache(_CONSTANTS_BYTES)
def _constants(d: int) -> _Constants:
    """The constants of degree d >= 1, built once and cached read-only per
    degree up to ``_CONSTANTS_BYTES`` in all (``BoundedCache``).  No entry
    holds a power table above ``_POWERS_BYTES``, so an entry passes the
    bound by itself only when its rows, factors and grid do, at
    d > 2^18; it is then kept alone, and the next bracket of that degree
    does not build it again.

    Row j, column k of ``rows`` is j + k, or d + 1 (the zero that
    ``_scan_table`` appends to column 0) when j + k > d; ``factors`` holds
    (j+k)! / (j! d^k) there, by one int true division, or 0."""
    level = _first_level(d)
    ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
    xs = ks * 2.0**-level
    offsets = np.arange(d + 1)[:, None] + np.arange(_ORDER + 2)
    rows = np.minimum(offsets, d + 1)
    factors = np.array(
        [[math.perm(j + k, k) / d**k if j + k <= d else 0.0 for k in range(_ORDER + 2)] for j in range(d + 1)]
    )
    powers = None
    if xs.size * (d + 1) * 8 <= _POWERS_BYTES:
        powers = _powers(xs, np.empty((xs.size, d + 1), order="F"))
    arrays = [a for a in (ks, xs, powers, rows, factors) if a is not None]
    for a in arrays:
        a.flags.writeable = False
    return _Constants(level, ks, xs, powers, rows, factors, sum(a.nbytes for a in arrays))


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
