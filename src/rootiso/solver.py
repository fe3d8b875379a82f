"""Subdivision solver: isolate the real roots of an integer polynomial.

The core routine bisects (-1, 1), pruning and accepting intervals by the
Descartes sign-variation count, and records the full subdivision tree.
Each node holds the Bernstein coefficients of the square-free part on its
interval, scaled to integers by a positive factor.  The Descartes count
of a node is the sign-variation count of that vector (Rouillier &
Zimmermann, 2004), so a test costs O(d).  A split costs one integer de
Casteljau pass, which also yields the sign of the midpoint value; the
off-zero refinement bisects the same way.  Only the root vector of each
phase needs a Taylor shift.
Roots outside [-1, 1] are reached through the reciprocal polynomial and the
map x -> 1/x; since 1/x is not dyadic in general, those results carry an
``inverted`` flag together with the dyadic pre-image.

A single run is sequential (the work queue is inherently ordered); runs on
distinct polynomials share no state and may proceed concurrently.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, lshift, or_, rshift

from .dyadic import Dyadic, DyadicInterval
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    pascal_rounds,
    sign_variations,
    square_free_part,
)


@dataclass(frozen=True)
class NodeRecord:
    """One processed subdivision node: its interval, variation count and
    depth (the root interval (-1, 1) has depth 0)."""

    interval: DyadicInterval
    variations: int
    depth: int


@dataclass
class SubdivisionTrace:
    """The subdivision tree of a run, as the nodes popped off the queue.

    Every tree statistic derives from ``var_per_node``.  ``square_free``
    records the square-free part the solver actually ran on.
    """

    var_per_node: list[NodeRecord]
    square_free: IntPolynomial

    @property
    def width_per_depth(self) -> list[int]:
        """``width_per_depth[k]`` counts the nodes of depth k."""
        widths = [0] * (self.depth + 1)
        for node in self.var_per_node:
            widths[node.depth] += 1
        return widths

    @property
    def node_count(self) -> int:
        """The number of intervals popped off the queue."""
        return len(self.var_per_node)

    @property
    def depth(self) -> int:
        return max((n.depth for n in self.var_per_node), default=-1)

    def max_width(self) -> int:
        return max(self.width_per_depth, default=0)

    def to_json(self) -> dict:
        widths = self.width_per_depth
        return {"node_count": sum(widths), "depth": len(widths) - 1, "width_per_depth": widths}


@dataclass(frozen=True)
class RootInterval:
    """An isolating interval; when ``inverted`` the root set is the image
    of the stored interval under x -> 1/x."""

    interval: DyadicInterval
    inverted: bool = False

    def approx_bounds(self) -> tuple[float, float]:
        """Outward-rounded float endpoints of the actual interval
        (display only; the stored dyadics are the exact data)."""
        lo = float(self.interval.lo)
        hi = float(self.interval.hi)
        if self.inverted:
            lo, hi = (1.0 / hi if hi else -math.inf), (1.0 / lo if lo else math.inf)
        return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)

    def to_json(self) -> dict:
        return {
            "lo": self.interval.lo.to_json(),
            "hi": self.interval.hi.to_json(),
            "inverted": self.inverted,
        }


@dataclass(frozen=True)
class ExactRoot:
    """A root found exactly; the root is ``value`` or 1/``value`` when
    ``inverted`` (the reciprocal of a dyadic is generally not dyadic)."""

    value: Dyadic
    inverted: bool = False

    def approx(self) -> float:
        v = float(self.value)
        return 1.0 / v if self.inverted else v

    def to_json(self) -> dict:
        out = self.value.to_json()
        out["inverted"] = self.inverted
        return out


@dataclass
class IsolationResult:
    """Isolating intervals, exact roots, and the subdivision trace.

    The intervals are pairwise disjoint, each contains exactly one real
    root of the input, and no exact root lies inside any interval."""

    intervals: list[RootInterval]
    exact_roots: list[ExactRoot]
    trace: SubdivisionTrace

    def root_count(self) -> int:
        return len(self.intervals) + len(self.exact_roots)

    def to_json(self) -> dict:
        return {
            "intervals": [iv.to_json() for iv in self.intervals],
            "exact_roots": [r.to_json() for r in self.exact_roots],
            "trace": self.trace.to_json(),
        }


def isolate_unit(f: IntPolynomial) -> IsolationResult:
    """Isolate the real roots of f in the open interval (-1, 1).

    The input is replaced by its square-free part and subdivided by
    ``_subdivide``; its variation counts agree with the direct
    Moebius-transform definition (asserted by the test suite).
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    return _subdivide(square_free_part(f))[0]


def isolate_all(f: IntPolynomial) -> IsolationResult:
    """Isolate every real root of f.

    Subdivides (-1, 1) for the square-free part fsq, tests +-1 exactly,
    and subdivides (-1, 1) for the reciprocal's square-free part, whose
    roots in (-1, 0) and (0, 1) are the reciprocals of the roots of f
    outside [-1, 1].  That part is fsq reversed (dropping a root at 0) and
    sign-normalized, so fsq is computed once.  Reciprocal-phase intervals
    are bisected from their vectors until they avoid 0, so every reported
    pre-image interval maps to a bounded interval under x -> 1/x.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    fsq = square_free_part(f)
    rsq = fsq.reciprocal()
    if rsq.leading_coefficient < 0:
        rsq = rsq.scale(-1)

    unit, _ = _subdivide(fsq)
    intervals = list(unit.intervals)
    exact = list(unit.exact_roots)

    for endpoint in (Dyadic(1), Dyadic(-1)):
        if f.evaluate_dyadic(endpoint).is_zero:
            exact.append(ExactRoot(endpoint))

    recip, vectors = _subdivide(rsq)
    exact.extend(_invert_exact(r.value) for r in recip.exact_roots)
    for iv, b in zip(recip.intervals, vectors):
        found = _refine_off_zero(iv.interval, b)
        if isinstance(found, ExactRoot):
            exact.append(found)
        else:
            intervals.append(found)

    return IsolationResult(
        intervals=intervals,
        exact_roots=exact,
        trace=SubdivisionTrace(unit.trace.var_per_node + recip.trace.var_per_node, fsq),
    )


def _subdivide(fsq: IntPolynomial):
    """Descartes subdivision of (-1, 1) for a square-free fsq.

    Each node carries a positive multiple of the Bernstein coefficients of
    fsq on its interval; its Descartes count is their sign variations, and
    one de Casteljau pass gives both children.  Returns the result and the
    vectors of its intervals (the var = 1 leaves), in order.
    """
    root = DyadicInterval(Dyadic(-1), Dyadic(1))
    queue = deque([(root, _root_vector(fsq), 0)])
    intervals: list[RootInterval] = []
    vectors: list[list[int]] = []
    exact: list[ExactRoot] = []
    nodes: list[NodeRecord] = []

    while queue:
        interval, b, depth = queue.popleft()
        v = sign_variations(b)
        nodes.append(NodeRecord(interval, v, depth))
        if v == 0:
            continue
        if v == 1:
            intervals.append(RootInterval(interval))
            vectors.append(b)
            continue
        left, right, apex = _bisect(b)
        if apex == 0:
            exact.append(ExactRoot(interval.midpoint()))
        lo_half, hi_half = interval.split()
        queue.append((lo_half, left, depth + 1))
        queue.append((hi_half, right, depth + 1))

    trace = SubdivisionTrace(var_per_node=nodes, square_free=fsq)
    return IsolationResult(intervals=intervals, exact_roots=exact, trace=trace), vectors


def _root_vector(fsq: IntPolynomial) -> list[int]:
    """Bernstein coefficients of fsq on [-1, 1], made integer and primitive.

    The Moebius image T of the root image fsq(2X - 1) has T_(d-i) =
    C(d, i) b_i, so b_i is scaled by K = lcm_i C(d, i) and the content
    divided out.
    """
    test = pascal_rounds(list(fsq.taylor_shift(-1).homothety(-1).coeffs))
    d = len(test) - 1
    binomials = list(accumulate(range(d), lambda c, i: c * (d - i) // (i + 1), initial=1))
    lcm = math.lcm(*binomials)
    b = [t * (lcm // c) for t, c in zip(reversed(test), binomials)]
    content = math.gcd(*b)
    return [x // content for x in b]


def _bisect(b: list[int]):
    """Vectors of the two halves and the apex, by one de Casteljau pass.

    Each round replaces the row by its pairwise sums, without halving;
    round k's first and last entries are 2^k times the left half's k-th
    and the right half's (d - k)-th Bernstein coefficient.  The apex is a
    positive multiple of the value at the midpoint.
    """
    left, right = [b[0]], [b[-1]]
    row = b
    while len(row) > 1:
        row = list(map(add, row, row[1:]))
        left.append(row[0])
        right.append(row[-1])
    return _unscale(left), _unscale(right)[::-1], row[0]


def _unscale(edge: list[int]) -> list[int]:
    """edge[k] * 2^(d - k), with the largest common power of two divided out."""
    scaled = list(map(lshift, edge, range(len(edge) - 1, -1, -1)))
    low = reduce(or_, scaled)  # its lowest set bit is the lowest of any entry
    s = (low & -low).bit_length() - 1
    return list(map(rshift, scaled, repeat(s))) if s else scaled


def _invert_exact(pre_image: Dyadic) -> ExactRoot:
    """Exact root 1/m for a dyadic m; folds back to a dyadic when m = +-2^-e."""
    if abs(pre_image.num) == 1:
        return ExactRoot(Dyadic(pre_image.sign() << pre_image.exp))
    return ExactRoot(pre_image, inverted=True)


def _refine_off_zero(interval, b):
    """Shrink a reciprocal-phase leaf (var = 1, vector b) until 0 is outside
    [lo, hi]; return its inverted interval, or the exact root if a midpoint
    lands on it.

    Each step bisects at the midpoint; the half keeping the root is the one
    with variation count 1 (the counts of the halves sum to at most 1 and
    the root half has odd count), so the left count decides.  Terminates
    because the isolated root is nonzero.
    """
    while interval.straddles_zero():
        left, right, apex = _bisect(b)
        if apex == 0:
            return _invert_exact(interval.midpoint())
        lo_half, hi_half = interval.split()
        if sign_variations(left) == 1:
            interval, b = lo_half, left
        else:
            interval, b = hi_half, right
    return RootInterval(interval, inverted=True)

