"""Subdivision solver: isolate the real roots of an integer polynomial.

The core routine bisects (-1, 1), pruning and accepting intervals by the
Descartes sign-variation count, and records the full subdivision tree.
The Descartes count of a node is the sign-variation count of the
Bernstein coefficients of the square-free part on its interval
(Rouillier & Zimmermann, 2004), so a test costs O(d).

A split is a float pass with exact fallback, after the bitstream Descartes
method (Eigenwillig, Kettner, Krandick, Mehlhorn, Schmitt & Wolpert, 2005;
Johnson & Krandick, 1997).  Each node carries its Bernstein vector in
float64 with a rigorous absolute error bound, and one float de Casteljau
pass gives both children.  An entry whose magnitude exceeds the bound has
a certified sign, which is the exact sign.  A node with an uncertain sign
reads its count from its exact integer vector instead, which the split
that makes it hands it: its half of one integer de Casteljau pass of the
split node's exact vector, shared by both children, when that node holds
one, and otherwise a vector built from the phase polynomial in one
transform on the child's interval, as Rouillier & Zimmermann (2004)
charge a node, not by bisecting exactly down from an ancestor one level
at a time.  So every node leaves its split counted, and the split node
keeps its own vector.  The sign at a midpoint comes from the float apex
when certified and otherwise from one exact evaluation, which also finds
a dyadic root there.  So the tree and every output are those of exact
arithmetic.  The reciprocal phase's off-zero refinement needs only the
sign at each midpoint, taken the same way; a step there computes the
float image of the half at 0 alone and builds no exact vector.  The root
(-1, 1) of the direct phase starts from one float product, its power
coefficients times the cached power-to-Bernstein matrix, under a bound
of the same kind, and its ends are the exact signs of two integer sums.
Its exact vector, a Taylor shift, is built only when the root's own
signs need it.  The reciprocal phase's root is the direct root with the
signs of alternate entries flipped, image, bound and exact vector alike,
and takes no product or transform of its own; only when the square-free
part vanishes at 0, so that the reciprocal has a lower degree, does it
start from its own product.

When the phase polynomial is even or odd, as Chebyshev polynomials are,
its tree on (-1, 1) is its own mirror image under x -> -x, and only the
root and (0, 1) are subdivided: the nodes, leaves and midpoint roots of
(-1, 0) are written as mirror images, in the order a full run pops them.
The reciprocal of an even or odd polynomial is again even or odd, so
both phases do this.

Roots outside [-1, 1] are reached through the reciprocal polynomial and the
map x -> 1/x; since 1/x is not dyadic in general, those results carry an
``inverted`` flag together with the dyadic pre-image.

A single run is sequential (the work queue is inherently ordered); runs on
distinct polynomials share no state and may proceed concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, lshift, mul, or_, rshift, truediv
from typing import NamedTuple

import numpy as np

from ._cache import bounded_cache
from .dyadic import Dyadic, DyadicInterval
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    pascal_rounds,
    sign_variations,
    square_free_part,
    unit_rescale,
)


class NodeRecord(NamedTuple):
    """One processed subdivision node: its interval, variation count and
    depth (the root interval (-1, 1) has depth 0).

    The work fields: ``exact`` when the count was read from the node's
    exact integer vector (a node, phase roots included, whose float signs
    were uncertain); ``exact_splits``, the exact transforms that building
    that vector took, 1 for an integer de Casteljau pass of the parent's
    vector or for a direct build from the phase polynomial, and 0 for a
    half that its sibling's pass left, or for the reciprocal phase's root
    when it mirrors the direct root's vector (``_mirrored_root``), which
    takes no transform; ``evaluated_midpoint`` when the node was split and
    the sign at its midpoint came from an exact evaluation.

    When the phase polynomial is even or odd, a node in (-1, 0) below the
    root is not computed but mirrored from its partner in (0, 1)
    (``_subdivide``).  Its record holds the fields a full run gives it:
    its partner's, with the ``exact_splits`` a full run charges it, the
    transforms its partner took, except that a pass shared by two siblings
    is charged to the left one in either half (``_mirrored_level``).
    """

    interval: DyadicInterval
    variations: int
    depth: int
    exact: bool = False
    exact_splits: int = 0
    evaluated_midpoint: bool = False


@dataclass
class SubdivisionTrace:
    """The subdivision tree of a run, as the nodes popped off the queue.

    Every tree statistic and work count derives from ``var_per_node``;
    the steps of the reciprocal phase's off-zero refinement (a split of
    the leaf (-1, 1), and half steps by the sign at a midpoint) are not
    nodes of the tree and are not counted.  The counts are those of the
    whole tree, mirrored half included (``NodeRecord``), so for an even
    or odd polynomial they exceed the work that ran.  ``square_free``
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

    @property
    def splits(self) -> int:
        """Nodes split in two, each by one float de Casteljau pass, but for
        the mirrored ones (``NodeRecord``)."""
        return sum(n.variations >= 2 for n in self.var_per_node)

    @property
    def exact_nodes(self) -> int:
        return sum(n.exact for n in self.var_per_node)

    @property
    def exact_splits(self) -> int:
        return sum(n.exact_splits for n in self.var_per_node)

    @property
    def midpoint_evaluations(self) -> int:
        return sum(n.evaluated_midpoint for n in self.var_per_node)

    def max_width(self) -> int:
        return max(self.width_per_depth, default=0)

    def to_json(self) -> dict:
        widths = self.width_per_depth
        return {"node_count": sum(widths), "depth": len(widths) - 1, "width_per_depth": widths}


class RootInterval(NamedTuple):
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
        return {**self.interval.to_json(), "inverted": self.inverted}


class ExactRoot(NamedTuple):
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


_ONE, _MINUS_ONE = Dyadic(1), Dyadic(-1)
_UNIT = DyadicInterval(_MINUS_ONE, _ONE)  # the root interval of both phases


def isolate_unit(f: IntPolynomial) -> IsolationResult:
    """Isolate the real roots of f in the open interval (-1, 1).

    The input is replaced by its square-free part and subdivided by
    ``_subdivide``; its variation counts agree with the direct
    Moebius-transform definition (asserted by the test suite).
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    fsq = square_free_part(f)
    leaves, midpoints, nodes = _subdivide(fsq, _phase_root(fsq))
    return IsolationResult(
        intervals=[RootInterval(leaf.interval) for leaf in leaves],
        exact_roots=[ExactRoot(m) for m in midpoints],
        trace=SubdivisionTrace(nodes, fsq),
    )


def isolate_all(f: IntPolynomial) -> IsolationResult:
    """Isolate every real root of f.

    Subdivides (-1, 1) for the square-free part fsq, tests +-1 exactly
    (f and fsq vanish there together, and the phase root holds the signs
    of fsq(+-1)), and subdivides (-1, 1) for the reciprocal's square-free
    part, whose roots in (-1, 0) and (0, 1) are the reciprocals of the
    roots of f outside [-1, 1].  That part is fsq reversed (dropping a
    root at 0), so fsq is computed once, and when fsq(0) != 0 its root
    node is fsq's with alternate signs flipped (``_mirrored_root``).
    Reciprocal-phase intervals are halved towards 0, by the sign of the
    reciprocal at each midpoint, until they avoid 0 (``_refine_off_zero``),
    so every reported pre-image interval maps to a bounded interval under
    x -> 1/x.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    fsq = square_free_part(f)
    root = _phase_root(fsq)
    leaves, midpoints, nodes = _subdivide(fsq, root)
    intervals = [RootInterval(leaf.interval) for leaf in leaves]
    exact = [ExactRoot(m) for m in midpoints]

    for endpoint, sign in ((_ONE, root.hi), (_MINUS_ONE, root.lo)):
        if sign == 0:
            exact.append(ExactRoot(endpoint))

    rsq = fsq.reciprocal()
    recip_root = _mirrored_root(root) if rsq.degree == fsq.degree else _phase_root(rsq)
    recip_leaves, recip_midpoints, recip_nodes = _subdivide(rsq, recip_root)
    exact.extend(_invert_exact(m) for m in recip_midpoints)
    for leaf in recip_leaves:
        found = _refine_off_zero(leaf, rsq)
        if isinstance(found, ExactRoot):
            exact.append(found)
        else:
            intervals.append(found)

    return IsolationResult(
        intervals=intervals,
        exact_roots=exact,
        trace=SubdivisionTrace(nodes + recip_nodes, fsq),
    )


def _subdivide(fsq: IntPolynomial, root: _Node):
    """Descartes subdivision of (-1, 1) for a square-free fsq, from its
    counted root node.

    A node's Descartes count is the sign variations of its Bernstein
    vector.  A split is a float pass with exact fallback (``_split``, here
    through ``_split_halves``), which returns counted nodes.  The queue is
    first in, first out, so the nodes are popped level by level, each
    level from left to right; the loop runs one level at a time.  Returns
    the var = 1 leaves and the midpoints found to be roots, each in the
    order their nodes are popped, and the records of every node popped.

    When fsq is even or odd (``_parity``), fsq(-x) = +-fsq(x), and the
    tree is its own mirror image under x -> -x: the Bernstein vector of a
    node (-b, -a) is that of (a, b) reversed, up to sign, so the two have
    the same count, mirrored children, and mirrored midpoint roots.  So
    the root's split keeps only (0, 1) (``_split_halves``), and every
    level below it is computed on (0, 1) alone.  The level's left part, on
    (-1, 0), is its right part reversed and mirrored, and goes before it,
    as the queue would pop it: leaves by ``_mirrored``, midpoints negated
    and records by ``_mirrored_level``.  A mirrored record copies its
    partner's work flags.  A full run would take them from float images
    of (-1, 0) that mirror those of (0, 1) only to rounding, since the
    root image sums its rows i and d - i in different orders; that could
    move a work flag, never a count or an output.  The test suite compares
    the records with those of a full run.
    """
    parity = _parity(fsq) if root.variations > 1 else 0
    leaves: list[_Node] = []
    midpoints: list[Dyadic] = []
    nodes: list[NodeRecord] = []
    level = [root]
    while level:
        below: list[_Node] = []
        marks = len(leaves), len(midpoints), len(nodes)
        for node in level:
            v = node.variations
            evaluated = False
            if v == 1:
                leaves.append(node)
            elif v:
                children, mid, evaluated = _split_halves(node, fsq, 1 if parity and not node.depth else 0)
                if mid == 0:
                    midpoints.append(node.interval.midpoint())
                below += children
            nodes.append(NodeRecord(node.interval, v, node.depth, node.exact is not None, node.exact_splits, evaluated))
        if parity and level[0].depth:  # the level's left part goes before its right part
            i, j, k = marks
            leaves[i:i] = [_mirrored(leaf, parity) for leaf in reversed(leaves[i:])]
            midpoints[j:j] = [-m for m in reversed(midpoints[j:])]
            nodes[k:k] = _mirrored_level(nodes[k:])
        level = below

    return leaves, midpoints, nodes


def _parity(g: IntPolynomial) -> int:
    """1 when g is even, -1 when g is odd (and not even), 0 otherwise."""
    coeffs = g.coeffs
    if not any(islice(coeffs, 1, None, 2)):
        return 1
    return 0 if any(islice(coeffs, 0, None, 2)) else -1


def _mirrored(node: _Node, parity: int) -> _Node:
    """The node (-b, -a) of a g with g(-x) = ``parity`` g(x), from its
    mirror image ``node`` (a, b): the float image reversed and times
    ``parity``, under the same bound, and the ends' signs swapped the same
    way.  It holds no exact vector; its record comes from ``node``'s."""
    f = node.f[::-1] * parity
    return _Node(-node.interval, node.depth, f, node.err, node.peak, parity * node.hi, parity * node.lo, node.variations)


def _mirrored_level(records: list[NodeRecord]) -> list[NodeRecord]:
    """The records of the left part of a level, from those of its right
    part ``records``, in the order the queue pops them: reversed, each
    interval (a, b) as (-b, -a), with the same count, depth and work flags.

    Two siblings that shared one exact pass (``_bisect``) both count
    exactly, and the pass is charged to the left one; two that counted
    exactly on their own vectors are each charged 1.  Mirroring makes the
    right sibling the left one, so a pair that both count exactly swaps
    its two charges.  The right part of level 1 is (0, 1) alone, whose
    sibling (-1, 0) is its mirror image: charged 1 when the two count
    exactly, whether they shared the root's pass or each built its own.
    """
    if records[0].depth == 1:
        (node,) = records
        return [_mirrored_record(node, int(node.exact))]
    out = []
    for left, right in zip(records[-2::-2], records[-1::-2]):
        shared = left.exact and right.exact
        out.append(_mirrored_record(right, left.exact_splits if shared else right.exact_splits))
        out.append(_mirrored_record(left, right.exact_splits if shared else left.exact_splits))
    return out


def _mirrored_record(node: NodeRecord, exact_splits: int) -> NodeRecord:
    return NodeRecord(-node.interval, node.variations, node.depth, node.exact, exact_splits, node.evaluated_midpoint)


@dataclass(slots=True, eq=False)
class _Node:
    """A subdivision node: a float image of its Bernstein vector, with the
    exact integer vector held only where its count needed it.

    ``f`` holds a positive multiple of the node's Bernstein coefficients to
    within ``err`` in every entry, and ``peak`` is max |f_i|.  ``lo`` and
    ``hi`` are the exact signs of the phase polynomial at the interval's
    ends, and ``variations`` is the Descartes count.  ``exact`` is the
    exact vector (a positive multiple of the same coefficients, primitive)
    when the count was read from it, and ``exact_splits`` the exact
    transforms that building it took.  A split leaves both as they are: a
    split node is dropped once its loop iteration ends, so only the two
    phase roots, which ``isolate_all`` holds, keep a vector past their
    split.
    """

    interval: DyadicInterval
    depth: int
    f: np.ndarray
    err: float
    peak: float
    lo: int
    hi: int
    variations: int
    exact: list[int] | None = None
    exact_splits: int = 0


def _read_exact(node: _Node, b: list[int], transforms: int) -> None:
    """Count node's variations on its exact vector b, which took
    ``transforms`` exact transforms to build, and reseed the float image
    from it."""
    node.exact, node.exact_splits = b, transforms
    node.variations = sign_variations(b)
    node.lo, node.hi = _sign(b[0]), _sign(b[-1])
    node.f = _unit_scaled(b)[0]
    node.err, node.peak = _U * _ROUND_UP, 1.0


def _unit_scaled(values) -> tuple[np.ndarray, int]:
    """The integers ``values`` times 2^-top, in float64, and top, the bit
    length of the largest magnitude: every entry lies in [-1, 1], and
    some entry is 1/2 or more.

    Each entry is rounded once, after truncation below 2^-1000 when it is
    wider than 1000 bits, and the scaling is exact, since nonzero results
    are at least 2^-1000.  So an entry is off by at most u times itself,
    plus 2^-1000 once truncated, which is below 2^-946 u times the
    largest entry.
    """
    top = max(map(int.bit_length, values))
    s = max(top - 1000, 0)
    out = np.array([x >> s for x in values] if s else values, dtype=np.float64)
    out *= math.ldexp(1.0, s - top)
    return out, top


_U = 2.0**-53  # unit roundoff of float64
_SUBNORMAL = 2.0**-1073  # twice the smallest subnormal
_ROUND_UP = 1.0 + 2.0**-50  # covers the rounding of the bound's own few operations


def _split(node: _Node, g: IntPolynomial):
    """Both halves of a node by one float de Casteljau pass, the exact sign
    of g at the midpoint, and whether that sign took an exact evaluation
    (``_split_halves`` keeping both).

    The halves are L f and J L J f, for J the reversal and L[k, j] =
    C(k, j) / 2^k (``_halving_matrix``), whose rows are nonnegative and
    sum to 1 and whose entries are correctly rounded.  Let p >= max |f_j|
    be the node's ``peak`` (p <= 1: a reseeded image lies in [-1, 1] and
    no half's entries exceed its parent's by more than rounding).  For a
    child entry y = sum_j L[k, j] f_j the computed value differs from the
    exact one by at most
      err             the inputs' error, times a row sum of 1,
      + u p           from rounding L (u = 2^-53),
      + gamma_n p     from the n-term dot product in any order, with
                      gamma_n = n u / (1 - n u) <= (n + 1) u for n <= 2^26,
      + 2 n 2^-1075   for products, and for entries of L (once d >= 1023),
                      that fall below the normal range,
    so by err + (n + 2) u p + n 2^-1073, which the new bound takes,
    rounded up (``_split_bound``).  An entry with |y| > err then has the sign of the exact
    entry.

    The ends of each half are exact multiples of g's values at the ends
    of its interval, so their signs are carried exactly.  The midpoint's
    sign is the apex's when |apex| > err; otherwise g is evaluated there
    exactly, which also finds a dyadic root.  A half whose interior
    entries all clear the bound gets its count from them.  Every other
    half counts on its exact vector (``_read_exact``): its half of one
    integer de Casteljau pass (``_bisect``) of the node's exact vector,
    which the two halves share, when the node holds one, and otherwise
    the vector built from g on its own interval (``_exact_vector``), which
    is the vector a chain of exact splits from the root would give, bit
    for bit.  The node itself is not changed.
    """
    return _split_halves(node, g, 0)


def _split_bound(err: float, peak: float, n: int) -> float:
    """The error bound of both halves of a node with n entries, error
    bound ``err`` and peak ``peak``, as ``_split`` derives it."""
    return (err + (n + 2) * _U * peak + n * _SUBNORMAL) * _ROUND_UP


def _split_halves(node: _Node, g: IntPolynomial, first: int):
    """``_split``, returning and counting only the halves from ``first``
    on: both for 0, the right one for 1.  A half that is not kept takes no
    exact vector.  A pass of the node's vector is charged as if both
    halves were kept, to the left one when both are uncertain."""
    f = node.f
    n = len(f)
    err = _split_bound(node.err, node.peak, n)
    halving = _halving_matrix(n)
    out = np.empty((2, n))
    np.matmul(halving, f, out=out[0])
    out[1] = (halving @ f[::-1].copy())[::-1]

    apex = float(out[0, -1])
    evaluated = abs(apex) <= err
    if evaluated:
        mid = g.evaluate_dyadic(node.interval.midpoint()).sign()
    else:
        mid = 1 if apex > 0 else -1

    magnitude = np.abs(out)
    peaks = magnitude.max(axis=1).tolist()
    floors = np.minimum.reduce(magnitude[:, 1:-1], axis=1, initial=math.inf).tolist()
    signs = np.sign(out)
    signs[0, 0], signs[0, -1], signs[1, 0], signs[1, -1] = node.lo, mid, mid, node.hi
    # read as one row; a zero end adds no variation, nor does the meeting
    # of the halves at mid, mid
    signs = signs.ravel()
    changes = signs[1:] * signs[:-1] < 0
    counts = int(np.count_nonzero(changes[: n - 1])), int(np.count_nonzero(changes[n:]))

    ends = ((node.lo, mid), (mid, node.hi))
    children = [
        _Node(interval, node.depth + 1, out[side], err, peaks[side], *ends[side], counts[side])
        for side, interval in enumerate(node.interval.split())
    ]
    uncertain = [side for side in (0, 1) if floors[side] <= err]
    reading = [side for side in uncertain if side >= first]
    if reading and node.exact is not None:
        halves = _bisect(node.exact)  # one pass, charged to the first half that takes it, kept or not
        for side in reading:
            _read_exact(children[side], halves[side], int(side == uncertain[0]))
    else:
        for side in reading:
            _read_exact(children[side], _exact_vector(g, children[side].interval), 1)
    return children[first:], mid, evaluated


_halving = None  # L of the largest size asked for so far


def _halving_matrix(n: int):
    """L of size n, L[k, j] = C(k, j) / 2^k correctly rounded.

    L of size n is the leading block of any larger L, so one matrix serves
    every smaller size as a view.  It is built at the size asked for, on
    first use and whenever a larger size comes.  It is read-only; a
    concurrent caller at worst builds it twice.
    """
    global _halving
    built = _halving
    if built is None or len(built) < n:
        built = np.zeros((n, n))
        row = [1]
        for k in range(n):
            # C(k, j) < 2^1023 converts with one rounding and 2^-k scales
            # it exactly while the results stay normal (k < 1023); beyond,
            # int division rounds correctly, subnormals included
            if k < 1023:
                built[k, : k + 1] = np.ldexp(np.array(row, dtype=np.float64), -k)
            else:
                built[k, : k + 1] = [c / (1 << k) for c in row]
            row = [1, *map(add, row, row[1:]), 1]
        built.flags.writeable = False
        _halving = built
    return built[:n, :n]


def _phase_root(g: IntPolynomial) -> _Node:
    """The node (-1, 1) of a phase for g, counted from its float image
    when that certifies every interior sign.

    Its ends are the signs of g(-1) and g(1), two exact integer sums; the
    image and its bound are ``_root_image``.  Otherwise it counts on its
    exact vector (``_read_exact``), built from g.
    """
    coeffs = g.coeffs
    even, odd = sum(coeffs[::2]), sum(coeffs[1::2])
    lo, hi = _sign(even - odd), _sign(even + odd)
    f, err, peak, _ = _root_image(coeffs)
    root = _Node(_UNIT, 0, f, err, peak, lo, hi, _float_count(f, lo, hi))
    if np.abs(f[1:-1]).min(initial=math.inf) <= err:
        _read_exact(root, _exact_vector(g, root.interval), 1)
    return root


def _float_count(f: np.ndarray, lo: int, hi: int) -> int:
    """The sign variations of a root image f with the exact end signs lo
    and hi; exact when every interior entry clears the image's bound."""
    signs = np.sign(f)
    signs[0], signs[-1] = lo, hi
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def _mirrored_root(root: _Node) -> _Node:
    """The reciprocal phase's root node, from the direct phase's root
    ``root`` for a g with g(0) != 0, split or not.

    With s = (1 + X)/2 and t = (1 - X)/2, g = sum_i b_i C(d, i) s^i t^(d-i)
    has X^d g(1/X) = sum_i b_i C(d, i) s^i (-t)^(d-i), since s(1/X) = s/X
    and t(1/X) = -t/X.  So the reciprocal, of degree d when g(0) != 0, has
    the Bernstein coefficients (-1)^(d-i) b_i on [-1, 1]: the image flips
    sign at alternate entries, exactly, under the same bound and peak, and
    the ends' signs become (-1)^d g(-1) and g(1).  A held exact vector
    flips the same way and stays primitive and a positive multiple, so it
    is the reciprocal's own (``_exact_vector``) bit for bit, and it took
    no transform.
    """
    d = len(root.f) - 1
    odd = slice(1 - d % 2, None, 2)  # the entries i with d - i odd
    f = root.f.copy()
    f[odd] *= -1.0
    lo = -root.lo if d & 1 else root.lo
    mirrored = _Node(root.interval, 0, f, root.err, root.peak, lo, root.hi, _float_count(f, lo, root.hi))
    if root.exact is not None:
        b = root.exact[:]
        b[odd] = [-x for x in b[odd]]
        _read_exact(mirrored, b, 0)
    return mirrored


def _root_image(coeffs) -> tuple[np.ndarray, float, float, int]:
    """Float image of the Bernstein coefficients on [-1, 1] of the
    polynomial with power coefficients ``coeffs``, with its error bound,
    its peak (at most 1) and the shift s of its scale: the image holds
    2^-s times the coefficients.

    The Bernstein coefficients are b = M c for M = D^-1 K, K[i, j] =
    [X^i] (X - 1)^j (X + 1)^(d - j) and D = diag C(d, i), and every
    |M[i, j]| <= 1 (``_build_bernstein_matrix``).  Take x, the coefficients
    scaled into [-1, 1] (``_unit_scaled``), and let y = M x exactly.  With
    n = d + 1, N = ||x||_1 >= 1/2 and u = 2^-53, the computed product
    differs from y by at most
      u N             from rounding x, through |M| <= 1,
      + u N + n 2^-1075   from rounding M (u |M| each, 2^-1075 for an
                      entry below the normal range; |x_j| <= 1),
      + (n + 1) u N   from the n-term dot product in any order (gamma_n
                      <= (n + 1) u for n <= 2^26, and every rounded
                      entry of M is at most 1 too),
      + n 2^-1075     for products below the normal range,
    and truncating x wider than 1000 bits adds under n 2^-1000, below
    2^-945 n u N.  The image is then scaled by 2^-e, which puts its peak
    in [1/2, 1), and the bound with it.  Scaling down rounds an entry
    below the normal range by at most 2^-1075 more, so the 2^-1075 terms
    stay within n 2^-1073; scaling up is exact, and leaves them below
    2^-990 u N', which the rounding up covers.  So with N' = N 2^-e the
    error is at most (n + 3) u N' + n 2^-1073.  N' is computed as a float
    sum, low by at most a factor 1 - (n - 1) u, which one more u N'
    covers for n <= 2^26: the bound taken is (n + 4) u N' + n 2^-1073,
    rounded up.  An interior entry with |y_i| above it has the exact
    sign.  A peak below 2^-54 lies within the bound and certifies
    nothing, so e stops at -53, which keeps N' finite.
    """
    n = len(coeffs)
    x, top = _unit_scaled(coeffs)
    f = _degree(n).matrix @ x
    norm = float(np.abs(x).sum())
    peak = float(np.abs(f).max())
    e = max(math.frexp(peak)[1], -53)
    if e:
        f *= math.ldexp(1.0, -e)
        norm, peak = math.ldexp(norm, -e), math.ldexp(peak, -e)
    return f, ((n + 4) * _U * norm + n * _SUBNORMAL) * _ROUND_UP, peak, top + e


class _Degree(NamedTuple):
    """The constants of one size n = d + 1: the power-to-Bernstein matrix
    (``_build_bernstein_matrix``), the lcm K of the binomials C(d, i) and
    the multipliers K / C(d, i) of ``_exact_vector``, and ``nbytes``, what
    they hold in all."""

    matrix: np.ndarray
    lcm: int
    multipliers: list[int]
    nbytes: int


_BERNSTEIN_CACHE_BYTES = 32 << 20  # the entries kept, least recently used dropped first


@bounded_cache(_BERNSTEIN_CACHE_BYTES)
def _degree(n: int) -> _Degree:
    """The constants of size n, built once and cached per size up to
    ``_BERNSTEIN_CACHE_BYTES`` in all (``BoundedCache``: a single larger
    entry is kept alone), so the matrix and the exact vectors' constants
    of a size are kept and dropped together."""
    binomials = _binomials(n - 1)
    lcm = math.lcm(*binomials)
    multipliers = [lcm // c for c in binomials]
    m = _build_bernstein_matrix(binomials)
    m.flags.writeable = False
    nbytes = m.nbytes + sum(map(sys.getsizeof, (lcm, *multipliers)))
    return _Degree(m, lcm, multipliers, nbytes)


def _build_bernstein_matrix(binomials: list[int]) -> np.ndarray:
    """M of size n, M[i, j] = K[i, j] / C(d, i) correctly rounded, for
    d = n - 1 and K[i, j] = [X^i] (X - 1)^j (X + 1)^(d - j), given the
    binomials C(d, 0), ..., C(d, d).

    M maps power coefficients to Bernstein coefficients on [-1, 1]:
    X^j = sum_i M[i, j] B_i for B_i = C(d, i) s^i t^(d - i), s = (1 + X)/2
    and t = (1 - X)/2, since X^j (s + t)^(d - j) = (s - t)^j (s + t)^(d - j).
    |K[i, j]| <= C(d, i), so |M| <= 1.  It is cached read-only in its size's
    ``_degree`` entry.

    M is built from exact integers, a quarter of it computed.  Its
    columns come from (X + 1) C_(j+1) = (X - 1) C_j for C_j the
    polynomial of column j: u_j[i] = (-1)^(i + j) K[i, j] makes u_(j+1)
    the prefix sums of u_j[i] + u_j[i - 1], so rows i <= d/2 need only
    rows i <= d/2.  Each entry is one int true division, which rounds
    correctly, subnormals included.  The rest follows from
    K[d - i, j] = (-1)^j K[i, j] (X -> 1/X) and
    K[i, d - j] = (-1)^(d + i) K[i, j] (X -> -X).
    """
    n = len(binomials)
    d = n - 1
    half = (n + 1) // 2
    head = binomials[:half]
    u = [c if i % 2 == 0 else -c for i, c in enumerate(head)]
    quarter = np.empty((half, half))
    for j in range(half):
        quarter[:, j] = list(map(truediv, u, head))
        u = list(accumulate(map(add, u, [0, *u[:-1]])))
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    m = np.empty((n, n))
    m[:half, :half] = quarter * np.outer(sign[:half], sign[:half])
    low = n // 2
    m[half:, :half] = m[:low, :half][::-1] * sign[:half]
    m[:, half:] = (sign if d % 2 == 0 else -sign)[:, None] * m[:, :low][:, ::-1]
    return m


def _binomials(d: int) -> list[int]:
    """C(d, 0), ..., C(d, d)."""
    return list(accumulate(range(d), lambda c, i: c * (d - i) // (i + 1), initial=1))


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _exact_vector(g: IntPolynomial, interval: DyadicInterval) -> list[int]:
    """Bernstein coefficients of g on ``interval``, made integer and
    primitive, in one transform.

    The Moebius image T of the unit rescale h (``unit_rescale(g,
    interval)``) has T_(d-i) = C(d, i) b_i, for b the
    Bernstein coefficients of h on [0, 1]: a positive multiple of those of
    g on the interval.  So b_i is scaled by K = lcm_i C(d, i), through the
    multipliers K / C(d, i) of the size's ``_degree`` entry, and the
    content divided out.

    The content is gcd(K |h_d|, b_0, ..., b_d), each gcd with one operand
    of at most the bits of K h_d.  It divides every entry, hence every
    C(d, i) b_i = K T_(d-i), so it divides K content(T).  T is h reversed
    and shifted by one, both invertible over the integers, so content(T)
    = content(h), which divides h_d = g_d wn^d.  Adding K |h_d| to the
    gcd therefore changes nothing, and g need not be primitive.

    This is the vector that any chain of exact splits (``_bisect``) from
    the root's vector gives, bit for bit.  Both are positive multiples of
    the same nonzero vector, so it suffices that both are primitive.  This
    one is by construction.  A chain vector is by induction from the root,
    which is one of these: a split maps a primitive b to the left half
    (2^(d-k) sum_(j <= k) C(k, j) b_j)_k, and to its mirror image on the
    right, by an integer triangular matrix with diagonal entries 2^(d-k).
    Its determinant is a power of two, so it is invertible modulo every odd
    prime p, and a p that divided every entry of the image would divide
    every entry of b.  The image's content is therefore a power of two,
    which ``_unscale`` divides out.
    """
    h = unit_rescale(g, interval).coeffs
    constants = _degree(len(h))
    b = list(map(mul, reversed(pascal_rounds(h)), constants.multipliers))
    content = math.gcd(constants.lcm * abs(h[-1]), *b)
    return [x // content for x in b] if content > 1 else b


def _bisect(b: list[int]):
    """Vectors of the two halves, by one de Casteljau pass.

    Each round replaces the row by its pairwise sums, without halving;
    round k's first and last entries are 2^k times the left half's k-th
    and the right half's (d - k)-th Bernstein coefficient.
    """
    left, right = [b[0]], [b[-1]]
    row = b
    while len(row) > 1:
        row = list(map(add, row, row[1:]))
        left.append(row[0])
        right.append(row[-1])
    return _unscale(left), _unscale(right)[::-1]


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


def _refine_off_zero(node: _Node, g: IntPolynomial):
    """Shrink a reciprocal-phase leaf (var = 1) until 0 is outside
    [lo, hi]; return its inverted interval, or the exact root if a midpoint
    lands on it.

    The leaf holds exactly one root, a simple one, and g(0) != 0, since g's
    constant term is the leading coefficient of the direct phase's
    square-free part.  The leaf (-1, 1), whose ends may be roots, is split
    once (``_split``), and the half with variation count 1 keeps the root.
    Every other leaf that meets 0 has it as an end, and a step there needs
    only the exact sign s of g at the midpoint m: m is the root if s = 0;
    if s is the sign of g(0), the root lies in the half away from 0, which
    is returned; otherwise it lies in the half at 0, and only that half's
    float image is computed, by one product with the halving matrix.  s is
    the sign of the apex when it clears the bound that ``_split`` gives
    the children, and otherwise comes from one exact evaluation.  No exact
    vector is built.  Terminates because the isolated root is nonzero.
    """
    if node.depth == 0:  # the leaf (-1, 1)
        (left, right), _, _ = _split(node, g)  # its midpoint 0 is no root
        node = left if left.variations == 1 else right
    if not node.interval.straddles_zero():
        return RootInterval(node.interval, inverted=True)
    zero_at_hi = node.interval.hi.is_zero
    far = node.interval.lo if zero_at_hi else node.interval.hi  # the end away from 0
    zero_sign = node.hi if zero_at_hi else node.lo
    f, err, peak = node.f, node.err, node.peak
    n = len(f)
    halving = _halving_matrix(n)
    while True:
        m = far.half()
        err = _split_bound(err, peak, n)
        apex = float(halving[-1] @ f)
        s = (1 if apex > 0 else -1) if abs(apex) > err else g.evaluate_dyadic(m).sign()
        if s == 0:
            return _invert_exact(m)
        if s == zero_sign:  # the root lies between far and m
            return RootInterval(DyadicInterval(far, m) if zero_at_hi else DyadicInterval(m, far), inverted=True)
        far = m
        f = (halving @ f[::-1].copy())[::-1] if zero_at_hi else halving @ f
        peak = float(np.abs(f).max())
