"""Complex-root geometry near the real interval.

Three independent pieces live here:

* the family of 2 ceil(lg d) + 1 dyadic-centered disks whose union hugs
  [-1, 1], together with the evaluation-based upper bound on how many
  roots that union can hold;
* the Obreshkoff discs of an interval, whose union (area) and
  intersection (lens) sandwich the Descartes variation count between
  complex root counts;
* a double-precision Aberth-Ehrlich root finder used as a validation
  oracle.  Everything the solver reports is exact; the oracle only
  cross-checks it, so fixed double precision with a deterministic
  initial configuration is enough at this scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dyadic import Dyadic, DyadicInterval
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    _gcd_with_derivative,
    square_free_part,
)


class NoConvergenceError(RuntimeError):
    """The root iteration did not meet the residual target.

    ``degree`` is the degree of the square-free part the iteration ran
    on, ``sweeps`` the number of sweeps run, ``residual`` the backward
    error after the last one and ``tol`` the target it missed.
    """

    def __init__(self, degree: int, sweeps: int, residual: float, tol: float):
        super().__init__(degree, sweeps, residual, tol)
        self.degree = degree
        self.sweeps = sweeps
        self.residual = residual
        self.tol = tol

    def __str__(self) -> str:
        return (
            f"no convergence: degree {self.degree}, {self.sweeps} sweeps, "
            f"last residual {self.residual:.3g} (tol {self.tol:.3g})"
        )


# The oracle's one configuration: every root it returns has backward error
# at most _TOL, and a root closer than _COVER_MARGIN to a disk boundary is
# counted as ambiguous by the cover count.
_TOL = 1e-10
_COVER_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# Disk cover of [-1, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskCover:
    """Disks D(center_n, radius_n), n = -N..N with N = ceil(lg d).

    Centers sit at sgn(n) (1 - (3/4) 2^-|n|) for |n| < N and at
    +-(1 - 2^-N) for |n| = N; radii are (3/8) 2^-|n|, respectively
    (3/2) 2^-N.  All values are exact dyadics.
    """

    d: int
    N: int
    centers: tuple[Dyadic, ...]  # index 0 holds n = -N
    radii: tuple[Dyadic, ...]

    def disks(self):
        for i, (c, r) in enumerate(zip(self.centers, self.radii)):
            yield i - self.N, c, r

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        """The centers and radii as float arrays, built once per cover."""
        return np.array([float(c) for c in self.centers]), np.array([float(r) for r in self.radii])

    def contains(self, z, margin: float = 0.0):
        """Open-union membership with a symmetric margin: positive margin
        shrinks every disk, negative margin grows it.  ``z`` is a point or
        an array of points, and the answer has its shape."""
        z = np.asarray(z, dtype=complex)[..., None]
        centers, radii = self._floats
        # np.hypot is the libm hypot behind abs() of a Python complex;
        # numpy's complex abs can differ from it in the last bit
        return np.any(np.hypot(z.real - centers, z.imag) < radii - margin, axis=-1)


@cache
def disk_cover(d: int) -> DiskCover:
    """The cover for degree d, built once per degree (it is immutable)."""
    if d < 2:
        raise ValueError("disk cover requires degree >= 2")
    N = max(1, (d - 1).bit_length())  # ceil(lg d)
    centers = []
    radii = []
    for n in range(-N, N + 1):
        k = abs(n)
        sign = (n > 0) - (n < 0)
        if k == N:
            centers.append(Dyadic(sign * ((1 << N) - 1), N))
            radii.append(Dyadic(3, N + 1))
        else:
            centers.append(Dyadic(sign * ((1 << (k + 2)) - 3), k + 2))
            radii.append(Dyadic(3, k + 3))
    return DiskCover(d=d, N=N, centers=tuple(centers), radii=tuple(radii))


def cover_root_count_bound(f: IntPolynomial) -> float:
    """Sum over the cover's disks of lg(e ||f||_1 / |f(center)|).

    Deterministic upper bound on the number of complex roots of f lying
    in the union of the disks; +inf when f vanishes at some center.  The
    center values are evaluated exactly before the single lossy log.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    cover = disk_cover(f.degree)
    norm = f.one_norm()
    lg_norm = _lg(norm)
    total = 0.0
    for _, center, _ in cover.disks():
        value = f.evaluate_dyadic(center)
        if value.is_zero:
            return math.inf
        total += math.log2(math.e) + lg_norm - (_lg(abs(value.num)) - value.exp)
    return total


def _lg(n: int) -> float:
    """log2 of a positive integer, safe for values beyond float range."""
    top, shift = _leading_bits(n)
    return shift + math.log2(top)


def _leading_bits(n: int) -> tuple[int, int]:
    """(n >> s, s) for a positive integer n, with s = 0 up to 512 bits and
    otherwise the shift that keeps its leading 64 bits."""
    shift = n.bit_length() - 64 if n.bit_length() > 512 else 0
    return n >> shift, shift


@dataclass(frozen=True)
class RootCountRange:
    """Root count in the open disk union, with boundary ambiguity.

    Roots closer than the membership margin 1e-9 to some disk boundary (and
    inside no disk by a clear margin) cannot be classified by the double
    precision oracle; they are counted in ``max`` but not in ``min``.
    """

    min: int
    max: int

    def to_json(self) -> dict:
        return {"min": self.min, "max": self.max}


def count_roots_in_cover(f: IntPolynomial) -> RootCountRange:
    """Count oracle roots of f inside the open disk union."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    cover = disk_cover(f.degree)
    return roots_in_cover(numeric_roots(f), cover)


def roots_in_cover(roots: ComplexRootSet, cover: DiskCover) -> RootCountRange:
    """``count_roots_in_cover`` for a root set the caller already holds:
    ``numeric_roots(f)`` and ``disk_cover(f.degree)``."""
    sure = cover.contains(roots.roots, _COVER_MARGIN)
    near = cover.contains(roots.roots, -_COVER_MARGIN)
    return RootCountRange(min=int(sure.sum()), max=int((sure | near).sum()))


# ---------------------------------------------------------------------------
# Obreshkoff discs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObreshkoffDiscs:
    """The two discs through the endpoints of an interval at angle
    pi / (rho + 2); for rho = 0 they coincide with the disc on the
    interval as diameter."""

    interval: DyadicInterval
    rho: int
    mid: float
    center_offset: float
    radius: float

    @property
    def upper_center(self) -> complex:
        return complex(self.mid, self.center_offset)

    @property
    def lower_center(self) -> complex:
        return complex(self.mid, -self.center_offset)

    def in_area(self, z: complex) -> bool:
        """Strict interior of the union of the two discs."""
        return (
            abs(z - self.upper_center) < self.radius
            or abs(z - self.lower_center) < self.radius
        )

    def in_lens(self, z: complex) -> bool:
        """Strict interior of the intersection of the two discs."""
        return (
            abs(z - self.upper_center) < self.radius
            and abs(z - self.lower_center) < self.radius
        )


def obreshkoff_discs(interval: DyadicInterval, rho: int) -> ObreshkoffDiscs:
    if rho < 0:
        raise ValueError("rho must be >= 0")
    phi = math.pi / (rho + 2)
    half_width = float(interval.width()) / 2.0
    return ObreshkoffDiscs(
        interval=interval,
        rho=rho,
        mid=float(interval.midpoint()),
        center_offset=half_width * (math.cos(phi) / math.sin(phi)),
        radius=half_width / math.sin(phi),
    )


# ---------------------------------------------------------------------------
# Numeric oracle (Aberth-Ehrlich)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of the square-free part, double precision.

    ``residual_bound`` is a backward-error bound: every returned root
    satisfies |g(z_i)| <= residual_bound * sum_k |g_k| |z_i|^k for the
    square-free part g.  For roots in the closed unit disk that scale is
    at most ||g||_1, so there |g(z_i)| <= residual_bound * ||g||_1 as
    well; outside the unit disk the evaluation scale necessarily grows
    with |z|^degree and a plain 1-norm normalization is unattainable in
    fixed precision.

    ``sweeps`` counts the iteration's sweeps, the last of which met the
    backward-error target; it is a work count, not part of any output.
    """

    roots: tuple[complex, ...]
    residual_bound: float
    sweeps: int = 0


_MAX_SWEEPS = 500


def numeric_roots(f: IntPolynomial) -> ComplexRootSet:
    """Simultaneous iteration for all complex roots of square_free_part(f).

    Deterministic: Newton-polygon initial radii with a fixed rotation and
    a fixed sweep cap.  Convergence means the backward error of every
    point is at most 1e-10; a final Newton polish tightens the roots to
    machine precision when it helps.

    Each sweep, and each polish step, evaluates g, g' and the
    backward-error scale sum_k |g_k| |z|^k in one Horner pass over all
    points (``_evaluate``).  Every value sees the same floating-point
    operations, in the same order, as three separate Horner passes would
    give it, so fusing the passes changes no root, residual or separation
    by a bit.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    return _square_free_roots(square_free_part(f))


def _square_free_roots(g: IntPolynomial) -> ComplexRootSet:
    """``numeric_roots`` of a g of degree >= 1 that is its own square-free
    part, such as ``isolate_unit(f).trace.square_free``."""
    z = _initial_points(g)
    n = z.size
    table = _horner_table(g, n)
    # the sweep's difference matrix, overwritten in place by its reciprocal
    diff = np.empty((n, n), dtype=complex)
    diagonal = diff.reshape(-1)[:: n + 1]  # a strided view

    residual = math.inf
    # a diverging iterate overflows to inf and NaN, which the residual
    # test reports as non-convergence; numpy need not warn about it.  A
    # NaN residual comes from a point that is not finite, or whose value
    # overflows, so that its step is not: no later step makes it finite
    # again, and the iteration stops there
    with np.errstate(all="ignore"):
        for sweeps in range(1, _MAX_SWEEPS + 1):
            values = _evaluate(table, z)
            residual = _residual(values)
            if residual <= _TOL:
                break
            if math.isnan(residual):
                raise NoConvergenceError(g.degree, sweeps, residual, _TOL)
            newton = _newton(values)
            np.subtract(z[:, None], z, diff)
            diagonal[:] = np.inf
            np.divide(1.0, diff, diff)
            repulse = np.add.reduce(diff, axis=1)
            denom = 1.0 - newton * repulse
            denom = np.where(denom == 0, 1e-300, denom)
            step = newton / denom
            step = np.where(np.isfinite(step), step, newton)
            z = z - step
        else:
            raise NoConvergenceError(g.degree, _MAX_SWEEPS, residual, _TOL)

        # Newton polish (roots are simple after square-freeing); keep the
        # polished points only if they do not degrade the residual.  The first
        # step starts from the last sweep's values, which are those at z.
        polished = z
        for _ in range(3):
            polished = polished - _newton(values)
            values = _evaluate(table, polished)
        polished_residual = _residual(values)
        if polished_residual <= residual:
            z, residual = polished, polished_residual

    order = np.lexsort((z.imag, z.real))
    return ComplexRootSet(
        roots=tuple(z[order].tolist()),
        residual_bound=residual,
        sweeps=sweeps,
    )


def _horner_table(g: IntPolynomial, n: int) -> list[np.ndarray]:
    """The d + 1 coefficient rows of ``_evaluate`` at n points, each a
    (3, n) complex view into one table, so that the Horner loop makes no
    view of its own.

    Row k, highest degree first, holds g_(d-k), |g_(d-k)| and the
    coefficient of x^(d-k) in g' (row 0 has no g' entry), each repeated
    once per point, so that every add in the Horner loop has operands of
    one shape: numpy's broadcast add made the whole ``rootiso analyze``
    run about 13 % slower.  With n = d the table takes 48 d (d + 1)
    bytes, three times a sweep's d x d difference matrix.  Every entry is
    a float with imaginary part +0.0, the value numpy gives a float added
    to or multiplied with a complex array.

    Coefficients of g or g' too wide for a float are truncated as
    ``solver._unit_scaled`` truncates: all of them lose the same low bits,
    so that the widest keeps 1000.  The roots and the backward error do
    not depend on that common power of two.
    """
    rows = [g.coeffs[::-1], g.derivative().coeffs[::-1]]
    try:
        coeffs, slope = (np.array(row, dtype=float)[:, None] for row in rows)
    except OverflowError:
        s = max(abs(c) for row in rows for c in row).bit_length() - 1000
        coeffs, slope = (np.array([c >> s for c in row], dtype=float)[:, None] for row in rows)
    table = np.zeros((coeffs.size, 3, n), dtype=complex)
    table[:, 0] = coeffs
    table[:, 1] = np.abs(coeffs)
    table[1:, 2] = slope
    return list(table)


def _evaluate(table: list[np.ndarray], z: np.ndarray) -> np.ndarray:
    """Rows g(z), sum_k |g_k| |z|^k (in the real part) and g'(z) at the
    points z, from one Horner loop over a (3, n) accumulator.

    Each row takes exactly the steps of its own Horner pass: start from
    the leading coefficient, then multiply by the point and add the next
    coefficient, each a complex numpy operation.  The |g| row runs at |z|
    with imaginary part +0.0, as a float array multiplied into a complex
    one is.  The g' row joins one step later, starting from g's leading
    coefficient times d, rather than from a padded zero, whose product
    with an infinite point would be NaN.  numpy's complex multiply and add
    give an element the same bits wherever it sits in the array, so each
    row equals its separate pass bit for bit (checked by the tests).
    """
    pts = np.empty((3, z.size), dtype=complex)
    pts[0] = pts[2] = z
    pts[1] = np.abs(z)
    acc = np.empty_like(pts)
    head = acc[:2]
    head[...] = table[0][:2]
    np.multiply(head, pts[:2], head)
    np.add(head, table[1][:2], head)
    acc[2] = table[1][2]
    multiply, add = np.multiply, np.add  # looked up once for the 2d calls
    for col in table[2:]:
        multiply(acc, pts, acc)
        add(acc, col, acc)
    return acc


def _newton(values: np.ndarray) -> np.ndarray:
    """g(z)/g'(z) from the rows of ``_evaluate``, a zero g'(z) read as 1e-300."""
    pv, _, dv = values
    return pv / np.where(dv == 0, 1e-300, dv)


def _residual(values: np.ndarray) -> float:
    """Largest backward error |g(z)| / sum_k |g_k| |z|^k over the points,
    from the rows of ``_evaluate``."""
    # the scale vanishes only where the value does (e.g. an exact root at 0)
    scale = np.maximum(values[1].real, 1e-300)
    return float(np.maximum.reduce(np.abs(values[0]) / scale))


def _log_abs(n: int) -> float:
    """Natural log of |n| for a nonzero integer of any size."""
    top, shift = _leading_bits(abs(n))
    return shift * math.log(2.0) + math.log(top)


def _initial_points(g: IntPolynomial) -> np.ndarray:
    """Newton-polygon start configuration for the simultaneous iteration.

    The upper convex hull of (k, log|g_k|) splits the indices into groups;
    each group of size m gets m points on the circle whose radius is the
    hull segment's slope exponential, matching the magnitudes of the roots
    it will converge to.  A fixed rotation keeps every circle off the real
    axis, where the mirror symmetry of real polynomials can stall the
    iteration.  Deterministic by construction.
    """
    pts = [(k, _log_abs(c)) for k, c in enumerate(g.coeffs) if c]
    # a vanishing constant term means a root exactly at the origin
    # (simple, since g is square-free); the hull only covers the rest
    zeros = pts[0][0]
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()  # keep only the upper hull
            else:
                break
        hull.append(p)
    points = []
    points.extend([0j] * zeros)
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = math.exp(min(700.0, max(-700.0, (y1 - y2) / m)))
        points.extend(
            radius * cmath.exp(1j * (2.0 * math.pi * (j + 0.25) / m + 0.4 + 0.3 * k1))
            for j in range(m)
        )
    return np.array(points, dtype=complex)


def real_roots_from_oracle(f: IntPolynomial) -> list[float]:
    """Real roots according to the oracle: |Im z| <= 1e-10, sorted."""
    return sorted(z.real for z in numeric_roots(f).roots if abs(z.imag) <= _TOL)


# ---------------------------------------------------------------------------
# Separation near the real interval
# ---------------------------------------------------------------------------


def distance_to_interval(z: complex) -> float:
    """Euclidean distance from z to the segment [-1, 1]."""
    return math.hypot(max(0.0, abs(z.real) - 1.0), z.imag)


def eps_real_separation(f: IntPolynomial, eps: float) -> float:
    """Minimum distance between roots lying within eps of [-1, 1].

    Counts every complex root in the eps-neighborhood.  Returns +inf when
    fewer than two roots are that close, and 0 when f has a repeated root
    there (detected exactly through gcd(f, f'), below oracle resolution).
    One gcd gives both the repeated part and the square-free part that
    the oracle runs on.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if not 0.0 <= eps < 1.0 / max(f.degree, 1):
        raise ValueError("eps must lie in [0, 1/d)")
    if f.degree == 0:
        return math.inf
    multiple, square_free = _gcd_with_derivative(f.primitive_part())
    if multiple.degree >= 1 and any(
        distance_to_interval(z) <= eps for z in numeric_roots(multiple).roots
    ):
        return 0.0
    return root_set_separation(_square_free_roots(square_free), eps)


def root_set_separation(roots: ComplexRootSet, eps: float) -> float:
    """Minimum distance between the roots of the set lying within eps of
    [-1, 1]; +inf when fewer than two are that close.

    With ``roots = numeric_roots(f)`` this is ``eps_real_separation``
    for an f without a repeated root near the interval, such as any f at
    eps = ``separation_epsilon(f, U)`` for a finite upper bound U on its
    condition (see there).
    """
    near = [z for z in roots.roots if distance_to_interval(z) <= eps]
    if len(near) < 2:
        return math.inf
    return min(abs(a - b) for i, a in enumerate(near) for b in near[i + 1 :])
