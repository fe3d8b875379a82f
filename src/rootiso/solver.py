"""Subdivision solver: isolate the real roots of an integer polynomial.

The core routine bisects (-1, 1), pruning and accepting intervals by the
Descartes sign-variation count, and records the full subdivision tree.
Every count, the off-zero refinement's included, is read off an integer
image that a node gets from its parent by homothety and Taylor shift.
Roots outside [-1, 1] are reached through the reciprocal polynomial and the
map x -> 1/x; since 1/x is not dyadic in general, those results carry an
``inverted`` flag together with the dyadic pre-image.

A single run is sequential (the work queue is inherently ordered); runs on
distinct polynomials share no state and may proceed concurrently.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .dyadic import Dyadic, DyadicInterval
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    square_free_part,
    unit_variations,
)


@dataclass(frozen=True)
class NodeRecord:
    """One processed subdivision node: its interval and variation count."""

    interval: DyadicInterval
    variations: int


@dataclass
class SubdivisionTrace:
    """Per-run tree statistics.

    ``node_count`` equals the number of intervals popped off the queue,
    which is the sum of ``width_per_depth``; ``depth`` is
    ``len(width_per_depth) - 1``.  ``square_free`` records the square-free
    part the solver actually ran on.
    """

    node_count: int
    depth: int
    width_per_depth: list[int]
    var_per_node: list[NodeRecord]
    square_free: IntPolynomial

    def max_width(self) -> int:
        return max(self.width_per_depth) if self.width_per_depth else 0

    def to_json(self) -> dict:
        return {
            "node_count": self.node_count,
            "depth": self.depth,
            "width_per_depth": list(self.width_per_depth),
        }


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

    intervals: list[RootInterval] = field(default_factory=list)
    exact_roots: list[ExactRoot] = field(default_factory=list)
    trace: SubdivisionTrace | None = None

    def root_count(self) -> int:
        return len(self.intervals) + len(self.exact_roots)

    def to_json(self) -> dict:
        return {
            "intervals": [iv.to_json() for iv in self.intervals],
            "exact_roots": [r.to_json() for r in self.exact_roots],
            "trace": self.trace.to_json() if self.trace else None,
        }


def isolate_unit(f: IntPolynomial, _lifo: bool = False) -> IsolationResult:
    """Isolate the real roots of f in the open interval (-1, 1).

    The input is replaced by its square-free part and subdivided by
    ``_subdivide``; its variation counts agree with the direct
    Moebius-transform definition (asserted by the test suite).

    ``_lifo`` switches the queue discipline for testing; the returned set
    does not depend on processing order.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    return _subdivide(square_free_part(f), _lifo)[0]


def isolate_all(f: IntPolynomial) -> IsolationResult:
    """Isolate every real root of f.

    Subdivides (-1, 1) for the square-free part fsq, tests +-1 exactly,
    and subdivides (-1, 1) for the reciprocal's square-free part, whose
    roots in (-1, 0) and (0, 1) are the reciprocals of the roots of f
    outside [-1, 1].  That part is fsq reversed (dropping a root at 0) and
    sign-normalized, so fsq is computed once.  Reciprocal-phase intervals
    are bisected from their images until they avoid 0, so every reported
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

    recip, images = _subdivide(rsq)
    exact.extend(_invert_exact(r.value) for r in recip.exact_roots)
    for iv, g in zip(recip.intervals, images):
        found = _refine_off_zero(rsq, iv.interval, g)
        if isinstance(found, ExactRoot):
            exact.append(found)
        else:
            intervals.append(found)

    return IsolationResult(
        intervals=intervals,
        exact_roots=exact,
        trace=_merge_traces(unit.trace, recip.trace),
    )


def _subdivide(fsq: IntPolynomial, lifo: bool = False):
    """Descartes subdivision of (-1, 1) for a square-free fsq.

    Each node carries a positive two-power multiple of fsq on its interval
    rescaled to [0, 1]; the root's is fsq(2X - 1).  Returns the result
    and the images of its intervals (the var = 1 leaves), in order.
    """
    root = DyadicInterval(Dyadic(-1), Dyadic(1))
    queue = deque([(root, fsq.taylor_shift(-1).homothety(-1), 0)])
    intervals: list[RootInterval] = []
    images: list[IntPolynomial] = []
    exact: list[ExactRoot] = []
    width_per_depth: list[int] = []
    nodes: list[NodeRecord] = []

    while queue:
        interval, g, depth = queue.pop() if lifo else queue.popleft()
        if depth == len(width_per_depth):
            width_per_depth.append(0)
        width_per_depth[depth] += 1
        v = unit_variations(g)
        nodes.append(NodeRecord(interval, v))
        if v == 0:
            continue
        if v == 1:
            intervals.append(RootInterval(interval))
            images.append(g)
            continue
        mid = interval.midpoint()
        if fsq.evaluate_dyadic(mid).is_zero:
            exact.append(ExactRoot(mid))
        left = _left_image(g)
        lo_half, hi_half = interval.split()
        queue.append((lo_half, left, depth + 1))
        queue.append((hi_half, left.taylor_shift(1), depth + 1))

    trace = SubdivisionTrace(
        node_count=len(nodes),
        depth=len(width_per_depth) - 1,
        width_per_depth=width_per_depth,
        var_per_node=nodes,
        square_free=fsq,
    )
    return IsolationResult(intervals=intervals, exact_roots=exact, trace=trace), images


def _left_image(g: IntPolynomial) -> IntPolynomial:
    """Left half's image of a node with image g; the right half's is its
    shift by one."""
    return g.homothety(1).strip_power_of_two()


def _invert_exact(pre_image: Dyadic) -> ExactRoot:
    """Exact root 1/m for a dyadic m; folds back to a dyadic when m = +-2^-e."""
    if abs(pre_image.num) == 1:
        return ExactRoot(Dyadic(pre_image.sign() << pre_image.exp))
    return ExactRoot(pre_image, inverted=True)


def _refine_off_zero(fsq, interval, g):
    """Shrink a reciprocal-phase leaf (var = 1, image g) until 0 is outside
    [lo, hi]; return its inverted interval, or the exact root if a midpoint
    lands on it.

    Each step bisects at the midpoint; the half keeping the root is the one
    with variation count 1 (the counts of the halves sum to at most 1 and
    the root half has odd count), so the left count decides.  Terminates
    because the isolated root is nonzero.
    """
    while interval.straddles_zero():
        mid = interval.midpoint()
        if fsq.evaluate_dyadic(mid).is_zero:
            return _invert_exact(mid)
        lo_half, hi_half = interval.split()
        g = _left_image(g)
        if unit_variations(g) == 1:
            interval = lo_half
        else:
            interval, g = hi_half, g.taylor_shift(1)
    return RootInterval(interval, inverted=True)


def _merge_traces(a: SubdivisionTrace, b: SubdivisionTrace) -> SubdivisionTrace:
    widths = [0] * max(len(a.width_per_depth), len(b.width_per_depth))
    for src in (a, b):
        for i, w in enumerate(src.width_per_depth):
            widths[i] += w
    return SubdivisionTrace(
        node_count=a.node_count + b.node_count,
        depth=len(widths) - 1,
        width_per_depth=widths,
        var_per_node=a.var_per_node + b.var_per_node,
        square_free=a.square_free,
    )
