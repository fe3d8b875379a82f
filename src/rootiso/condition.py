"""Condition numbers on [-1, 1] and certified global brackets.

The local condition of f at x is ||f||_1 / max(|f(x)|, |f'(x)|/d); large
values mean f is close to a polynomial with a singular zero at x.  The
global condition is its maximum over the closed interval [-1, 1], and
x -> 1 / cond(f, x) is d-Lipschitz there, which is what certifies the
upper end of the bracket: if M is the exact maximum over a grid of
spacing delta then cond over the whole interval is at most
1 / (1/M - d delta) whenever that is positive.

Numerics policy: condition values only matter on a log scale downstream,
so each value is the float quotient of exactly computed integer/dyadic
quantities (relative error below 2^-40).  Grid scans run in vectorized
floating point with a rigorous error budget; only the few points that
could attain the grid maximum are evaluated exactly, so the reported
bracket is the same one a fully exact scan of the grid would produce.
The scan visits each grid point once: a level is the sorted merge of the
previous level's active points and their odd neighbours, the points
carried over keep their scanned values, and no dyadic is evaluated
exactly twice.
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
_SAFETY = 1.0 + 2.0**-30  # absorbs the 2^-40 rounding of exact-path quotients


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
    d = f.degree
    if d == 0:
        return 1.0
    fx = abs(f.evaluate_dyadic(x))
    fpx = abs(f.derivative().evaluate_dyadic(x))
    if fx.is_zero and fpx.is_zero:
        return math.inf
    norm = f.one_norm()
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
    """

    lower: float
    upper: float
    grid_size: int
    delta: float
    achieved: bool

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


# Levels up to this many grid points keep every point for the next
# level; beyond it the scan keeps an active cell set (Lipschitz pruning,
# see below).
_FULL_SCAN_POINTS = 1 << 15


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

    * the float scan carries the rigorous error budget E below, and only
      points whose scanned 1/cond is within 2E of the level minimum are
      evaluated exactly; no other point can attain the grid minimum of
      1/cond, and a point evaluated at a coarser level is not evaluated
      again, since its value is already in the maximum;
    * each level is the refinement of an active set of the previous one
      (``_children``): the even child 2a of a point a is that point
      itself, so it keeps the scanned 1/cond, and only the odd children
      are scanned in float;
    * past ``_FULL_SCAN_POINTS``, a grid cell (radius delta/2 around an
      evaluated point x) leaves the active set once hf(x) - d delta/2
      exceeds the running minimum by 2E: the Lipschitz property of
      1/cond then puts every finer grid point inside that cell strictly
      above the exactly evaluated minimum, so dropped cells cannot change
      the maximum at any later level.  Below that size no point is
      dropped, which makes the refinement the whole next grid.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    d = f.degree
    if d == 0:
        return ConditionBracket(1.0, 1.0, 1, 2.0, True)

    norm = float(f.one_norm())
    coeffs_desc = np.array(f.coeffs[::-1], dtype=float)
    deriv_desc = np.array(f.derivative().coeffs[::-1], dtype=float)
    # error budget: (4d+16) ulp covers Horner accumulation at |x| <= 1,
    # coefficient rounding, and the divisions by d and ||f||_1
    err = (4.0 * d + 16.0) * 2.0**-53

    def scan(ks: np.ndarray, level: int) -> np.ndarray:
        xs = ks.astype(float) * 2.0**-level
        return np.maximum(np.abs(_horner(coeffs_desc, xs)), np.abs(_horner(deriv_desc, xs)) / d) / norm

    level = max(2, (4 * d - 1).bit_length())
    ks = np.arange(-(1 << level), (1 << level) + 1, dtype=np.int64)
    inv_cond = scan(ks, level)
    evaluated = set()  # points already passed to local_condition
    best_cond = 0.0
    hf_min_running = math.inf
    last_finite_upper = math.inf

    while True:
        grid_size = (1 << (level + 1)) + 1
        delta = 2.0**-level
        level_min = float(inv_cond.min())
        hf_min_running = min(hf_min_running, level_min)
        for idx in np.nonzero(inv_cond <= level_min + 2.0 * err)[0]:
            x = Dyadic(int(ks[idx]), level)
            if x not in evaluated:
                evaluated.add(x)
                best_cond = max(best_cond, local_condition(f, x))

        lower = best_cond
        inv_m = 1.0 / (lower * _SAFETY)
        upper = 1.0 / (inv_m - d * delta) if inv_m > d * delta else math.inf
        if math.isfinite(upper):
            last_finite_upper = upper
            if upper <= (1.0 + rel_tol) * lower:
                return ConditionBracket(lower, upper, grid_size, delta, True)
        if (1 << (level + 2)) + 1 > max_grid:
            # report the last evaluated grid
            return ConditionBracket(lower, last_finite_upper, grid_size, delta, False)

        if grid_size >= _FULL_SCAN_POINTS:
            keep = inv_cond <= hf_min_running + 2.0 * err + d * (delta / 2.0)
            ks, inv_cond = ks[keep], inv_cond[keep]
        level += 1
        ks, odd = _children(ks, level)
        parent_inv, inv_cond = inv_cond, np.empty(ks.size)
        inv_cond[odd] = scan(ks[odd], level)
        inv_cond[~odd] = parent_inv


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


def _horner(coeffs_desc: np.ndarray, xs: np.ndarray) -> np.ndarray:
    acc = np.full(xs.shape, coeffs_desc[0])
    for c in coeffs_desc[1:]:
        acc *= xs
        acc += c
    return acc


def separation_lower_bound(f: IntPolynomial, cond_upper: float | None = None, **bracket_kwargs) -> float:
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
    if cond_upper is None:
        cond_upper = global_condition_bracket(f, **bracket_kwargs).upper
    if not math.isfinite(cond_upper):
        raise UnboundedConditionError("unbounded condition")
    return 1.0 / (12.0 * d * cond_upper)


def separation_epsilon(f: IntPolynomial, cond_upper: float) -> float:
    """The neighborhood radius for which ``separation_lower_bound`` holds."""
    d = max(f.degree, 1)
    return 1.0 / (math.e * d * cond_upper)
