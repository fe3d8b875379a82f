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

import numpy as np

from .dyadic import Dyadic, DyadicInterval
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    repeated_root_part,
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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        """Open-union membership with a symmetric margin: positive margin
        shrinks every disk, negative margin grows it."""
        return any(
            abs(z - complex(float(c), 0.0)) < float(r) - margin
            for _, c, r in self.disks()
        )


def disk_cover(d: int) -> DiskCover:
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
    if n.bit_length() <= 512:
        return math.log2(n)
    shift = n.bit_length() - 64
    return shift + math.log2(n >> shift)


@dataclass(frozen=True)
class RootCountRange:
    """Root count in the open disk union, with boundary ambiguity.

    Roots closer than the membership margin to some disk boundary (and
    inside no disk by a clear margin) cannot be classified by the double
    precision oracle; they are counted in ``max`` but not in ``min``.
    """

    min: int
    max: int

    def to_json(self) -> dict:
        return {"min": self.min, "max": self.max}


def count_roots_in_cover(
    f: IntPolynomial, margin: float = 1e-9, tol: float = 1e-10
) -> RootCountRange:
    """Count oracle roots of f inside the open disk union."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    cover = disk_cover(f.degree)
    return roots_in_cover(numeric_roots(f, tol=tol), cover, margin)


def roots_in_cover(roots: ComplexRootSet, cover: DiskCover, margin: float = 1e-9) -> RootCountRange:
    """``count_roots_in_cover`` for a root set the caller already holds:
    ``numeric_roots(f, tol)`` and ``disk_cover(f.degree)``."""
    sure = 0
    ambiguous = 0
    for z in roots.roots:
        if cover.contains(z, margin):
            sure += 1
        elif cover.contains(z, -margin):
            ambiguous += 1
    return RootCountRange(min=sure, max=sure + ambiguous)


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
    """

    roots: tuple[complex, ...]
    residual_bound: float


_MAX_SWEEPS = 500


def numeric_roots(f: IntPolynomial, tol: float = 1e-10) -> ComplexRootSet:
    """Simultaneous iteration for all complex roots of square_free_part(f).

    Deterministic: Newton-polygon initial radii with a fixed rotation and
    a fixed sweep cap.  Convergence means the backward error of every
    point is at most ``tol``; a final Newton polish tightens the roots to
    machine precision when it helps.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    if tol < 1e-12:
        raise ValueError("tol below oracle resolution 1e-12")
    g = square_free_part(f)
    coeffs = np.array(g.coeffs[::-1], dtype=float)  # highest degree first
    abs_coeffs = np.abs(coeffs)
    deriv = np.array(g.derivative().coeffs[::-1], dtype=float)

    z = _initial_points(g)

    residual = math.inf
    for _ in range(_MAX_SWEEPS):
        pv = _cpolyval(coeffs, z)
        residual = _backward_error(abs_coeffs, z, pv)
        if residual <= tol:
            break
        dv = _cpolyval(deriv, z)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulse
        denom = np.where(denom == 0, 1e-300, denom)
        step = newton / denom
        step = np.where(np.isfinite(step), step, newton)
        z = z - step
    else:
        raise NoConvergenceError(g.degree, _MAX_SWEEPS, residual, tol)

    # Newton polish (roots are simple after square-freeing); keep the
    # polished points only if they do not degrade the residual
    polished = z
    for _ in range(3):
        dv = _cpolyval(deriv, polished)
        dv = np.where(dv == 0, 1e-300, dv)
        polished = polished - _cpolyval(coeffs, polished) / dv
    polished_residual = _backward_error(abs_coeffs, polished, _cpolyval(coeffs, polished))
    if polished_residual <= residual:
        z, residual = polished, polished_residual

    order = np.lexsort((z.imag, z.real))
    return ComplexRootSet(
        roots=tuple(complex(v) for v in z[order]),
        residual_bound=residual,
    )


def _backward_error(abs_coeffs_desc: np.ndarray, z: np.ndarray, pv: np.ndarray) -> float:
    # the scale vanishes only where the value does (e.g. an exact root at 0)
    scale = np.maximum(_cpolyval(abs_coeffs_desc, np.abs(z)).real, 1e-300)
    return float(np.max(np.abs(pv) / scale))


def _cpolyval(coeffs_desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs_desc[0], dtype=complex)
    for c in coeffs_desc[1:]:
        acc = acc * z + c
    return acc


def _log_abs(n: int) -> float:
    """Natural log of |n| for a nonzero integer of any size."""
    n = abs(n)
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 64
    return shift * math.log(2.0) + math.log(n >> shift)


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


def real_roots_from_oracle(
    f: IntPolynomial, tol: float = 1e-10, imag_cut: float = 1e-10
) -> list[float]:
    """Real roots according to the oracle: |Im z| <= imag_cut, sorted."""
    return sorted(
        z.real for z in numeric_roots(f, tol=tol).roots if abs(z.imag) <= imag_cut
    )


# ---------------------------------------------------------------------------
# Separation near the real interval
# ---------------------------------------------------------------------------


def distance_to_interval(z: complex) -> float:
    """Euclidean distance from z to the segment [-1, 1]."""
    return math.hypot(max(0.0, abs(z.real) - 1.0), z.imag)


def eps_real_separation(f: IntPolynomial, eps: float, tol: float = 1e-10) -> float:
    """Minimum distance between roots lying within eps of [-1, 1].

    Counts every complex root in the eps-neighborhood.  Returns +inf when
    fewer than two roots are that close, and 0 when f has a repeated root
    there (detected exactly through gcd(f, f'), below oracle resolution).
    """
    if repeated_root_near(f, eps, tol=tol):
        return 0.0
    if f.degree == 0:
        return math.inf
    return root_set_separation(numeric_roots(f, tol=tol), eps)


def repeated_root_near(f: IntPolynomial, eps: float, tol: float = 1e-10) -> bool:
    """Whether f has a repeated root within eps of [-1, 1].

    The repeated part gcd(f, f') is exact; the oracle runs on it only
    when it has a root.  Validates f and eps for ``eps_real_separation``.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    d = max(f.degree, 1)
    if not 0.0 <= eps < 1.0 / d:
        raise ValueError("eps must lie in [0, 1/d)")
    if f.degree == 0:
        return False
    multiple = repeated_root_part(f)
    return multiple.degree >= 1 and any(
        distance_to_interval(z) <= eps for z in numeric_roots(multiple, tol=tol).roots
    )


def root_set_separation(roots: ComplexRootSet, eps: float) -> float:
    """Minimum distance between the roots of the set lying within eps of
    [-1, 1]; +inf when fewer than two are that close.

    With ``roots = numeric_roots(f, tol)`` this is ``eps_real_separation``
    for an f without a repeated root near the interval.
    """
    near = [z for z in roots.roots if distance_to_interval(z) <= eps]
    if len(near) < 2:
        return math.inf
    return min(abs(a - b) for i, a in enumerate(near) for b in near[i + 1 :])
