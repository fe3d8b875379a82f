import dataclasses
import functools
import hashlib
import importlib.util
import math
import random
import sys
import threading
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

try:
    import sympy
except ImportError:  # only the exact total count needs it
    sympy = None

from conftest import make_poly
from hypothesis import given, settings
from hypothesis import strategies as st
from rootiso import polynomial, solver
from rootiso._cache import BoundedCache
from rootiso.cli import main
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    sign_variations,
    square_free_part,
    unit_rescale,
    unit_variations,
    variations_in_interval,
)
from rootiso.regions import real_roots_from_oracle
from rootiso.solver import (
    ExactRoot,
    IsolationResult,
    NodeRecord,
    RootInterval,
    SubdivisionTrace,
    _bisect,
    _exact_vector,
    _invert_exact,
    isolate_all,
    isolate_unit,
)


def poly(*coeffs):
    return IntPolynomial(coeffs)


def chebyshev(n):
    """T_n: n simple roots in (-1, 1), crowding towards +-1."""
    prev, cur = [1], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return IntPolynomial(cur if n else prev)


def scaled_chebyshev(n):
    """4^n T_n(x/4): n simple roots in (-4, 4), most of them outside [-1, 1]."""
    return IntPolynomial([c * 4 ** (n - k) for k, c in enumerate(chebyshev(n).coeffs)])


def mignotte(n, a):
    """x^n - 2(ax - 1)^2: a pair of real roots very close to 1/a."""
    return IntPolynomial([-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


def product(*factors):
    out = [1]
    for f in factors:
        nxt = [0] * (len(out) + f.degree)
        for i, x in enumerate(out):
            for j, y in enumerate(f.coeffs):
                nxt[i + j] += x * y
        out = nxt
    return IntPolynomial(out)


class TestUnitExamples:
    def test_two_roots(self):
        res = isolate_unit(poly(-1, 0, 4))
        got = {(str(iv.interval.lo), str(iv.interval.hi)) for iv in res.intervals}
        assert got == {("-1", "0"), ("0", "1")}
        assert res.exact_roots == []
        assert res.trace.node_count == 3
        assert res.trace.width_per_depth == [1, 2]
        vars_at = {n.interval: n.variations for n in res.trace.var_per_node}
        assert vars_at[DyadicInterval(Dyadic(-1), Dyadic(1))] == 2
        assert vars_at[DyadicInterval(Dyadic(-1), Dyadic(0))] == 1
        assert vars_at[DyadicInterval(Dyadic(0), Dyadic(1))] == 1

    def test_no_real_roots(self):
        res = isolate_unit(poly(1, 0, 1))
        assert res.intervals == [] and res.exact_roots == []
        assert res.trace.node_count == 1

    def test_identity_polynomial(self):
        # var(X, (-1,1)) = 1, so the subdivision loop accepts (-1, 1) as the
        # isolating interval without ever testing the midpoint
        res = isolate_unit(poly(0, 1))
        assert res.root_count() == 1
        only = res.intervals[0].interval
        assert only.contains(Dyadic(0))
        assert res.trace.node_count == 1

    def test_exact_midpoint_root(self):
        # x (4x^2 - 1): var >= 2 at the root node, so the midpoint test fires
        res = isolate_unit(poly(0, -1, 0, 4))
        assert Dyadic(0) in [r.value for r in res.exact_roots]
        assert res.root_count() == 3

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError, match="zero polynomial"):
            isolate_unit(IntPolynomial([]))

    def test_non_square_free_input(self):
        # (2x-1)^2 (x+1): silently square-freed, recorded in the trace
        res = isolate_unit(poly(1, -3, 0, 4))
        assert res.trace.square_free == poly(-1, 1, 2)
        assert res.root_count() == 1  # only x = 1/2 lies inside (-1, 1)


class TestAllExamples:
    def test_roots_outside_unit(self):
        res = isolate_all(poly(-4, 0, 1))  # x^2 - 4
        values = sorted(r.approx() for r in res.exact_roots)
        assert values == [-2.0, 2.0]
        assert all(not r.inverted for r in res.exact_roots)
        assert res.intervals == []

    def test_endpoint_root(self):
        res = isolate_all(poly(-1, 1))  # x - 1
        assert [r.approx() for r in res.exact_roots] == [1.0]
        assert res.intervals == []

    def test_same_as_unit_when_no_outside_roots(self):
        unit = isolate_unit(poly(-1, 0, 4))
        both = isolate_all(poly(-1, 0, 4))
        assert {iv.interval for iv in both.intervals} == {iv.interval for iv in unit.intervals}
        assert both.exact_roots == unit.exact_roots

    def test_inverted_interval_representation(self):
        # roots of 3x^2 - 7 at +-1.528: not dyadic reciprocals, so the
        # results carry pre-image intervals with the inverted flag
        res = isolate_all(poly(-7, 0, 3))
        assert len(res.intervals) == 2 and all(iv.inverted for iv in res.intervals)
        for iv in res.intervals:
            lo, hi = iv.approx_bounds()
            assert lo < hi
            root = math.sqrt(7.0 / 3.0)
            assert (lo < root < hi) or (lo < -root < hi)
            assert not iv.interval.straddles_zero()

    def test_non_dyadic_pre_image(self):
        # the root 3 has pre-image 1/3, which no dyadic midpoint ever hits:
        # it stays an inverted interval
        res = isolate_all(poly(-3, 1))
        assert res.exact_roots == [] and len(res.intervals) == 1
        lo, hi = res.intervals[0].approx_bounds()
        assert res.intervals[0].inverted and lo < 3.0 < hi


class TestTraceInvariants:
    def test_structure(self):
        rng = random.Random(21)
        for _ in range(50):
            f = make_poly(rng, rng.randint(1, 24), 16)
            trace = isolate_unit(f).trace
            assert trace.node_count == sum(trace.width_per_depth)
            assert trace.depth == len(trace.width_per_depth) - 1
            assert trace.width_per_depth[0] == 1
            assert trace.node_count >= 1

    def test_merged_trace_structure(self):
        rng = random.Random(22)
        for _ in range(30):
            f = make_poly(rng, rng.randint(1, 16), 12)
            trace = isolate_all(f).trace
            assert trace.node_count == sum(trace.width_per_depth)
            assert trace.depth == len(trace.width_per_depth) - 1

    def test_node_records_on_golden_corpus(self):
        # each record's depth matches its interval (width 2^(1 - depth) in
        # both phases), and the per-depth widths count the records
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        nodes = 0
        for line in corpus.read_text().splitlines():
            f = IntPolynomial.from_text(line)
            for trace in (isolate_unit(f).trace, isolate_all(f).trace):
                counts = Counter(node.depth for node in trace.var_per_node)
                assert trace.width_per_depth == [counts[k] for k in range(max(counts) + 1)]
                for node in trace.var_per_node:
                    assert node.interval.width() == Dyadic(1, node.depth - 1)
                nodes += trace.node_count
        assert nodes > 500

    def test_var_records_match_direct_definition(self):
        # the Bernstein sign counts carried from node to node must agree with
        # the Moebius formula, also where the vectors hold zeros: a zero apex
        # at a dyadic-midpoint root, a zero end coefficient at a root on 0 or
        # +-1, degrees 0 and 1, and the close root pairs of Mignotte
        rng = random.Random(23)
        cases = [make_poly(rng, rng.randint(1, 16), 16) for _ in range(100)]
        x, x_minus_1, x_plus_1 = poly(0, 1), poly(-1, 1), poly(1, 1)
        cases += [poly(5), poly(-3), poly(0, 1), poly(-1, 2), poly(3, -4), poly(7, 1)]
        for _ in range(12):
            roots = [poly(-rng.randint(-15, 15), 1 << rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]
            cases.append(product(*roots, make_poly(rng, rng.randint(0, 4), 8)))
        cases += [product(x, x_minus_1, x_plus_1), product(x, x, x_plus_1, poly(-1, 0, 4))]
        cases += [product(x_minus_1, make_poly(rng, 6, 8)), product(x_plus_1, poly(1, 4))]
        cases += [mignotte(n, a) for n, a in ((3, 2), (5, 3), (8, 10), (12, 4))]
        midpoint_roots = 0
        for f in cases:
            rev = f.reciprocal()
            for g in (f, rev if rev.leading_coefficient > 0 else rev.scale(-1)):
                res = isolate_unit(g)
                fsq = res.trace.square_free
                midpoint_roots += len(res.exact_roots)
                for node in res.trace.var_per_node:
                    assert node.variations == variations_in_interval(fsq, node.interval)
        assert midpoint_roots > 0

    def test_width_bounded_by_root_variations(self):
        rng = random.Random(24)
        for _ in range(50):
            f = make_poly(rng, rng.randint(1, 20), 16)
            res = isolate_unit(f)
            by_depth = {}
            for node in res.trace.var_per_node:
                by_depth.setdefault(node.depth, []).append(node.variations)
            root_var = by_depth[0][0]
            for vs in by_depth.values():
                assert sum(vs) <= root_var

    def test_children_var_subadditive(self):
        rng = random.Random(25)
        for _ in range(50):
            f = make_poly(rng, rng.randint(1, 20), 16)
            res = isolate_unit(f)
            vars_at = {n.interval: n.variations for n in res.trace.var_per_node}
            for interval, v in vars_at.items():
                if v < 2:
                    continue
                left, right = interval.split()
                assert left in vars_at and right in vars_at
                assert vars_at[left] + vars_at[right] <= v


class TestBernsteinVectors:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=14).filter(lambda c: c[-1]),
        st.lists(st.booleans(), max_size=5),
    )
    def test_split_children_are_bernstein_multiples(self, coeffs, path):
        # the root vector and each child of a split are positive multiples
        # of the exact Bernstein coefficients on their intervals, and the
        # apex (the left half's last entry) has the sign of f at the midpoint
        f = IntPolynomial(coeffs)
        interval = DyadicInterval(Dyadic(-1), Dyadic(1))
        b = _exact_vector(f, interval)
        assert _positive_multiple(b, _bernstein(f, interval))
        for go_right in path:
            left, right = _bisect(b)
            lo_half, hi_half = interval.split()
            value = f.evaluate_fraction(interval.midpoint().to_fraction())
            assert (left[-1] > 0) - (left[-1] < 0) == (value > 0) - (value < 0)
            assert _positive_multiple(left, _bernstein(f, lo_half))
            assert _positive_multiple(right, _bernstein(f, hi_half))
            interval, b = (hi_half, right) if go_right else (lo_half, left)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 1 << 30),
        st.one_of(
            st.lists(st.booleans(), min_size=1, max_size=30),
            # a first step, then a run the other way or the same way: the
            # intervals keep an end at 0, or at -1 or 1
            st.builds(lambda first, then, n: [first] + [then] * n, st.booleans(), st.booleans(), st.integers(0, 29)),
        ),
    )
    def test_direct_build_equals_the_chain(self, seed, path):
        # the vector built in one transform on a node's interval is, bit for
        # bit, the one the chain of exact splits from the root gives; dyadic
        # roots put zero entries at the ends of some intervals
        rng = random.Random(seed)
        d = rng.randint(0, 64)
        roots = [poly(-rng.randint(-8, 8), 1 << rng.randint(0, 3)) for _ in range(rng.randint(0, min(d, 8)))]
        f = product(*roots, make_poly(rng, d - len(roots), rng.choice([2, 32, 300])))
        interval = DyadicInterval(Dyadic(-1), Dyadic(1))
        b = _exact_vector(f, interval)
        assert b == _reference_root_vector(f)
        for go_right in path:
            left, right = _bisect(b)
            lo_half, hi_half = interval.split()
            interval, b = (hi_half, right) if go_right else (lo_half, left)
            assert _exact_vector(f, interval) == b, (f, interval)

    def test_isolate_all_work_counts(self, monkeypatch):
        # a unit rescale, with its Taylor shift, runs only to build an exact
        # vector directly, on int lists: at most two on these small inputs,
        # and none where the float images certify every sign; node tests
        # and splits need none, no polynomial's taylor_shift runs, and no
        # node runs the Moebius-image count
        calls = {"unit_rescale": 0, "taylor_shift": 0, "unit_variations": 0}
        taylor_shift = IntPolynomial.taylor_shift

        def counting_rescale(g, interval):
            calls["unit_rescale"] += 1
            return unit_rescale(g, interval)

        def counting_shift(self, c):
            calls["taylor_shift"] += 1
            return taylor_shift(self, c)

        def counting_variations(g):
            calls["unit_variations"] += 1
            return unit_variations(g)

        monkeypatch.setattr(solver, "unit_rescale", counting_rescale)
        monkeypatch.setattr(IntPolynomial, "taylor_shift", counting_shift)
        monkeypatch.setattr(polynomial, "unit_variations", counting_variations)
        monkeypatch.setattr(solver, "unit_variations", counting_variations, raising=False)
        rng = random.Random(56)
        cases = [chebyshev(14), scaled_chebyshev(11), mignotte(10, 6), poly(-7, 0, 3)]
        cases += [product(poly(0, 1), poly(-1, 2), poly(3, 4), poly(-5, 1)), poly(0, 0, 1)]
        fixed = len(cases)
        cases += [make_poly(rng, rng.randint(1, 40), 32) for _ in range(10)]
        nodes = 0
        for k, f in enumerate(cases):
            before = calls["unit_rescale"]
            nodes += isolate_all(f).trace.node_count
            assert calls["unit_rescale"] - before <= (2 if k < fixed else 0), f
        assert calls["unit_rescale"] >= 1
        assert calls["taylor_shift"] == calls["unit_variations"] == 0
        assert nodes > 10 * len(cases)


def _reference_exact_vector(g, interval):
    """The direct build through polynomials: the unit rescale by
    ``homothety`` and ``taylor_shift`` and the powers of wn, its Moebius
    rounds, the binomials' lcm taken afresh, and the content as the gcd
    of every entry."""
    a, w = interval.lo, interval.width()
    level = max(a.exp, w.exp)
    an, wn = a.num << (level - a.exp), w.num << (level - w.exp)
    shifted = g.homothety(level).taylor_shift(an)
    h = [c * wn**i for i, c in enumerate(shifted.coeffs)]
    assert unit_rescale(g, interval).coeffs == tuple(h)
    test = polynomial.pascal_rounds(h)
    d = len(test) - 1
    binomials = [math.comb(d, i) for i in range(d + 1)]
    lcm = math.lcm(*binomials)
    b = [t * (lcm // c) for t, c in zip(reversed(test), binomials)]
    content = math.gcd(*b)
    return [x // content for x in b]


_ODD_WIDTH = st.builds(Dyadic, st.integers(0, 1 << 12).map(lambda n: 2 * n + 1), st.integers(0, 14))
_INTERVALS = st.one_of(
    st.just(DyadicInterval(Dyadic(-1), Dyadic(1))),  # the root interval, wn = 2
    st.sampled_from([DyadicInterval(Dyadic(0), Dyadic(1)), DyadicInterval(Dyadic(0), Dyadic(3, 2))]),  # an = 0
    st.builds(
        lambda lo, width: DyadicInterval(lo, lo + width),
        st.builds(Dyadic, st.integers(-(1 << 16), 1 << 16), st.integers(0, 14)),
        st.one_of(_ODD_WIDTH, st.builds(Dyadic, st.just(1), st.integers(-2, 14))),
    ),
)


class TestExactVectorKernel:
    """``_exact_vector`` on int lists, with cached constants and the
    content taken against lcm |h_d|, equals the build through polynomials."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=24).filter(lambda c: c[-1]),
        st.sampled_from([1, 2, 3, 12, 1 << 20, 3**30, 2**7 * 5**9]),
        _INTERVALS,
    )
    def test_equals_the_polynomial_path(self, coeffs, content, interval):
        # g need not be primitive, and its content may share factors with
        # the binomials' lcm and with the powers of an and wn
        g = IntPolynomial([c * content for c in coeffs])
        assert _exact_vector(g, interval) == _reference_exact_vector(g, interval)

    def test_contents_above_one(self):
        # inputs whose Moebius image keeps a content above 1 once scaled:
        # dyadic roots at the ends, products of binomials, a wide content
        cases = [
            (product(poly(-1, 2), poly(-3, 4), poly(1, 8)), DyadicInterval(Dyadic(1, 1), Dyadic(3, 2))),
            (IntPolynomial([math.comb(12, i) * 6 for i in range(13)]), DyadicInterval(Dyadic(-1), Dyadic(1))),
            (poly(0, 0, 0, 1 << 30), DyadicInterval(Dyadic(-3, 1), Dyadic(5, 3))),
            (chebyshev(20).scale(7), DyadicInterval(Dyadic(1, 3), Dyadic(7, 5))),
        ]
        for g, interval in cases:
            assert _exact_vector(g, interval) == _reference_exact_vector(g, interval), (g, interval)

    def test_constants_per_degree(self):
        for n in (1, 2, 3, 17, 64, 129):
            entry = solver._degree.__wrapped__(n)
            binomials = [math.comb(n - 1, i) for i in range(n)]
            assert solver._binomials(n - 1) == binomials and entry.lcm == math.lcm(*binomials)
            assert entry.multipliers == [entry.lcm // c for c in binomials]
            assert np.array_equal(entry.matrix, solver._build_bernstein_matrix(binomials))
            assert entry.nbytes > entry.matrix.nbytes

    def test_constants_evicted_with_the_matrix(self, monkeypatch):
        # the exact vectors' constants of a size live in its matrix's cache
        # entry: they are built with it, reused with it and dropped with it
        built = []
        build = solver._degree.__wrapped__
        cache = BoundedCache(lambda n: built.append(n) or build(n), build(40).nbytes + build(41).nbytes)
        monkeypatch.setattr(solver, "_degree", cache)
        f, interval = chebyshev(39), DyadicInterval(Dyadic(1, 3), Dyadic(3, 3))
        want = _reference_exact_vector(f, interval)
        assert _exact_vector(f, interval) == want and built == [40]
        entry = cache.entries[40]
        assert solver._degree(40).matrix is entry.matrix and built == [40]
        solver._degree(41)
        assert list(cache.entries) == [40, 41]
        solver._degree(42)
        assert 40 not in cache.entries and all(e is not entry for e in cache.entries.values())
        assert _exact_vector(f, interval) == want and built == [40, 41, 42, 40]
        assert cache.entries[40] is not entry and list(cache.entries) == [40]


def _bernstein(f, interval):
    """Exact Bernstein coefficients of f on interval, up to a power of two:
    b_k = sum_(i <= k) C(k, i) / C(d, i) g_i for g the unit rescale."""
    d = f.degree
    g = list(unit_rescale(f, interval).coeffs) + [0] * d
    return [sum(Fraction(math.comb(k, i), math.comb(d, i)) * g[i] for i in range(k + 1)) for k in range(d + 1)]


def _positive_multiple(vector, reference):
    j = next(k for k, r in enumerate(reference) if r)
    ratio = Fraction(vector[j]) / reference[j]
    return ratio > 0 and len(vector) == len(reference) and all(v == ratio * r for v, r in zip(vector, reference))


class TestResultInvariants:
    def test_intervals_disjoint_and_exact_roots_outside(self):
        rng = random.Random(26)
        for _ in range(100):
            f = make_poly(rng, rng.randint(1, 16), 16)
            res = isolate_unit(f)
            ivs = sorted((iv.interval for iv in res.intervals), key=lambda j: j.lo)
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi <= b.lo
            for r in res.exact_roots:
                assert not any(iv.contains(r.value) for iv in ivs)

    def test_each_interval_has_variation_one(self):
        rng = random.Random(27)
        for _ in range(60):
            f = make_poly(rng, rng.randint(1, 16), 16)
            res = isolate_unit(f)
            fsq = res.trace.square_free
            for iv in res.intervals:
                assert variations_in_interval(fsq, iv.interval) == 1


class TestAgainstOracle:
    def test_unit_roots_match(self):
        rng = random.Random(29)
        for _ in range(60):
            f = make_poly(rng, rng.randint(1, 24), 16)
            res = isolate_unit(f)
            inside = [x for x in real_roots_from_oracle(f) if -1.0 < x < 1.0]
            assert res.root_count() == len(inside)
            for x in inside:
                hits = sum(
                    1 for iv in res.intervals if float(iv.interval.lo) < x < float(iv.interval.hi)
                )
                hits += sum(1 for r in res.exact_roots if abs(float(r.value) - x) <= 1e-9)
                assert hits == 1

    def test_all_roots_match(self):
        rng = random.Random(30)
        for _ in range(40):
            f = make_poly(rng, rng.randint(1, 12), 10)
            res = isolate_all(f)
            roots = real_roots_from_oracle(f)
            assert res.root_count() == len(roots)
            for x in roots:
                hits = 0
                for iv in res.intervals:
                    lo, hi = iv.approx_bounds()
                    hits += lo < x < hi
                hits += sum(1 for r in res.exact_roots if abs(r.approx() - x) <= 1e-8)
                assert hits >= 1


class TestReciprocalRefinement:
    def test_inverted_intervals_against_reference(self):
        # every refined pre-image isolates one root of the reciprocal's
        # square-free part by the direct Moebius count and avoids 0, and
        # both entry points equal the exact reference
        rng = random.Random(31)
        cases = [make_poly(rng, rng.randint(1, 24), 16) for _ in range(40)]
        cases += [scaled_chebyshev(n) for n in range(2, 18)]
        # (x^2 - 1)(x - 3): the reciprocal's square-free part (x^2 - 1)(3x - 1)
        # has the leaf (-1, 1), whose ends are both roots
        cases.append(product(poly(-1, 0, 1), poly(-3, 1)))
        # roots +-2^j, whose reciprocals the refinement meets as midpoints
        powers = []
        for _ in range(12):
            chosen = [rng.choice((-1, 1)) << j for j in rng.sample(range(1, 41), rng.randint(1, 4))]
            powers += chosen
            cases.append(product(*(poly(-c, 1) for c in chosen), make_poly(rng, rng.randint(0, 4), 8)))
        refined = whole_leaves = 0
        exact = set()
        for f in cases:
            rsq = square_free_part(f.reciprocal())
            leaves = [leaf.interval for leaf in isolate_unit(rsq).intervals]
            refined += sum(leaf.straddles_zero() for leaf in leaves)
            whole_leaves += leaves == [DyadicInterval(Dyadic(-1), Dyadic(1))]
            _, whole = _same_as_reference(f)
            exact |= {r.value for r in whole.exact_roots if not r.inverted}
            for iv in whole.intervals:
                if not iv.inverted:
                    continue
                assert variations_in_interval(rsq, iv.interval) == 1
                assert iv.interval.lo.sign() > 0 or iv.interval.hi.sign() < 0
        assert refined > 0 and whole_leaves > 0
        assert {Dyadic(c) for c in powers} <= exact

    def test_golden_isolate_output(self, capsys, strict_loads):
        # `rootiso isolate --input` on a fixed structured corpus, one
        # polynomial per line: Chebyshev T_n, 4^n T_n(x/4), Mignotte
        # x^n - 2(ax - 1)^2, products with dyadic and +-1 roots, squares
        # and a cube, X^k factors, constants, a negated scaled Chebyshev
        # and a few random inputs.  The output is byte-stable: work on the
        # subdivision kernel must leave this digest unchanged.
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        assert main(["isolate", "--input", str(corpus)]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "7290fb2319ffd25465b676a854b7c12fc394ee337d7d49268929fdd0047deddd"
        # RFC 8259 JSON, one result per input line
        assert len(strict_loads(out)["results"]) == len(corpus.read_text().splitlines())

    def test_golden_isolate_unit_only_output(self, capsys):
        # the same corpus through `rootiso isolate --unit-only`: the roots in
        # (-1, 1) and the trace of that phase alone
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        assert main(["isolate", "--unit-only", "--input", str(corpus)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "49cec39b69f70947a75a01e0fa0570ec496730bc7d184c5059a9bce9e520206c"


class TestExactCertification:
    """isolate_all certified by exact rational arithmetic alone.

    Each interval must carry a sign change of the square-free part (the
    reciprocal's part, on the pre-image, for inverted ones), so it holds an
    odd number of roots; the intervals are disjoint and free of the exact
    roots; and the total equals sympy's exact count of distinct real roots.
    Together these say every interval holds exactly one root and none is
    missed.
    """

    def _inputs(self):
        rng = random.Random(55)
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        cases = [IntPolynomial.from_text(line) for line in corpus.read_text().splitlines()]
        cases += [make_poly(rng, rng.randint(1, 30), 16) for _ in range(25)]
        cases += [chebyshev(n) for n in (1, 2, 5, 8, 13, 21)]
        cases += [scaled_chebyshev(n) for n in (3, 7, 12, 19)]
        cases += [mignotte(n, a) for n, a in ((5, 3), (8, 10), (12, 4), (16, 7))]
        x, x_minus_1, x_plus_1 = poly(0, 1), poly(-1, 1), poly(1, 1)
        for _ in range(12):
            # dyadic roots inside and outside [-1, 1], +-1 and 0, some repeated
            roots = [poly(-rng.randint(-40, 40), 1 << rng.randint(0, 4)) for _ in range(rng.randint(1, 6))]
            extra = rng.sample([x, x, x_minus_1, x_plus_1, x_plus_1], rng.randint(0, 3))
            cases.append(product(*roots, *extra, make_poly(rng, rng.randint(0, 6), 8)))
        return cases

    def test_intervals_certified_exactly(self):
        for f in self._inputs():
            if f.degree < 1:
                continue
            res = isolate_all(f)
            _certify(f, res)
            if sympy is not None:
                # exact isolation by continued fractions; count_roots, a
                # Sturm sequence, gives the same counts 50x slower here
                count = len(sympy.Poly(f.coeffs[::-1], sympy.Symbol("x")).intervals())
                assert res.root_count() == count, f


def _certify(f: IntPolynomial, res: IsolationResult, unit: bool = False) -> None:
    """Assert, by exact rational arithmetic alone, that every interval of
    res carries a sign change of the square-free part of f (of its
    reciprocal, on the pre-image, for inverted ones), so holds an odd
    number of roots; that the intervals are disjoint and hold no exact
    root; and that f vanishes at every exact root.  With ``unit``, res
    holds the roots in (-1, 1) alone, and a root at -1 or 1 is not one."""
    exact = {_actual(r.value.to_fraction(), r.inverted) for r in res.exact_roots}
    for root in exact:
        assert f.evaluate_fraction(root) == 0, (f, root)
    unreported = set()
    if unit:
        assert all(-1 < root < 1 for root in exact) and not any(iv.inverted for iv in res.intervals)
        unreported = {Fraction(-1), Fraction(1)}
    for inverted in (False, True):
        spans = sorted((iv.interval for iv in res.intervals if iv.inverted == inverted), key=lambda j: j.lo)
        if not spans:
            continue
        part = square_free_part(f.reciprocal() if inverted else f)
        for a, b in zip(spans, spans[1:]):
            assert a.hi <= b.lo, (f, a, b)
        for span in spans:
            lo, hi = span.lo.to_fraction(), span.hi.to_fraction()
            if inverted:
                assert lo > 0 or hi < 0
            ends = (_actual(lo, inverted), _actual(hi, inverted))
            assert not any(min(ends) < root < max(ends) for root in exact)
            coeffs = [Fraction(c) for c in part.coeffs]
            for end in (lo, hi):
                if _horner(coeffs, end) == 0:
                    assert _actual(end, inverted) in exact | unreported
                    coeffs = _deflate(coeffs, end)
            assert _horner(coeffs, lo) * _horner(coeffs, hi) < 0, (f, span)


def _actual(pre_image, inverted):
    return 1 / pre_image if inverted else pre_image


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    """Quotient by (X - root) of a polynomial vanishing at root."""
    acc, quotient = Fraction(0), []
    for c in reversed(coeffs):
        acc = acc * root + c
        quotient.append(acc)
    assert quotient.pop() == 0
    return quotient[::-1]


def _reference_root_vector(fsq: IntPolynomial) -> list[int]:
    """Bernstein coefficients of fsq on [-1, 1], made integer and primitive.

    The Moebius image T of the root image fsq(2X - 1) has T_(d-i) =
    C(d, i) b_i, so b_i is scaled by K = lcm_i C(d, i) and the content
    divided out.
    """
    test = polynomial.pascal_rounds(list(fsq.taylor_shift(-1).homothety(-1).coeffs))
    d = len(test) - 1
    binomials = [math.comb(d, i) for i in range(d + 1)]
    lcm = math.lcm(*binomials)
    b = [t * (lcm // c) for t, c in zip(reversed(test), binomials)]
    content = math.gcd(*b)
    return [x // content for x in b]


def _reference_subdivide(fsq: IntPolynomial):
    """Descartes subdivision of (-1, 1) for a square-free fsq.

    Each node carries a positive multiple of the Bernstein coefficients of
    fsq on its interval; its Descartes count is their sign variations, and
    one de Casteljau pass gives both children.  Returns the result and the
    vectors of its intervals (the var = 1 leaves), in order.
    """
    root = DyadicInterval(Dyadic(-1), Dyadic(1))
    queue = deque([(root, _reference_root_vector(fsq), 0)])
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
        left, right = _bisect(b)
        if left[-1] == 0:
            exact.append(ExactRoot(interval.midpoint()))
        lo_half, hi_half = interval.split()
        queue.append((lo_half, left, depth + 1))
        queue.append((hi_half, right, depth + 1))

    trace = SubdivisionTrace(var_per_node=nodes, square_free=fsq)
    return IsolationResult(intervals=intervals, exact_roots=exact, trace=trace), vectors


def _reference_refine(interval, b):
    """Shrink a reciprocal-phase leaf (var = 1, vector b) until 0 is outside
    [lo, hi]; return its inverted interval, or the exact root if a midpoint
    lands on it.

    Each step bisects at the midpoint; the half keeping the root is the one
    with variation count 1 (the counts of the halves sum to at most 1 and
    the root half has odd count), so the left count decides.  Terminates
    because the isolated root is nonzero.
    """
    while interval.straddles_zero():
        left, right = _bisect(b)
        if left[-1] == 0:
            return _invert_exact(interval.midpoint())
        lo_half, hi_half = interval.split()
        if sign_variations(left) == 1:
            interval, b = lo_half, left
        else:
            interval, b = hi_half, right
    return RootInterval(interval, inverted=True)


def _reference_isolate(f: IntPolynomial):
    """``isolate_unit`` and ``isolate_all`` of f on exact integer vectors
    alone: every split an integer de Casteljau pass, as before the float
    filter."""
    fsq = square_free_part(f)
    rsq = fsq.reciprocal()
    if rsq.leading_coefficient < 0:
        rsq = rsq.scale(-1)
    unit, _ = _reference_subdivide(fsq)
    intervals = list(unit.intervals)
    exact = list(unit.exact_roots)
    for endpoint in (Dyadic(1), Dyadic(-1)):
        if f.evaluate_dyadic(endpoint).is_zero:
            exact.append(ExactRoot(endpoint))
    recip, vectors = _reference_subdivide(rsq)
    exact.extend(_invert_exact(r.value) for r in recip.exact_roots)
    for iv, b in zip(recip.intervals, vectors):
        found = _reference_refine(iv.interval, b)
        if isinstance(found, ExactRoot):
            exact.append(found)
        else:
            intervals.append(found)
    trace = SubdivisionTrace(unit.trace.var_per_node + recip.trace.var_per_node, fsq)
    return unit, IsolationResult(intervals=intervals, exact_roots=exact, trace=trace)


def _same_as_reference(f: IntPolynomial):
    """Assert that both entry points match the exact reference on f, node
    for node, and return their results, ``isolate_unit``'s first."""
    results = (isolate_unit(f), isolate_all(f))
    for got, want in zip(results, _reference_isolate(f)):
        assert [(n.interval, n.variations, n.depth) for n in got.trace.var_per_node] == [
            (n.interval, n.variations, n.depth) for n in want.trace.var_per_node
        ], f
        assert got.intervals == want.intervals, f
        assert got.exact_roots == want.exact_roots, f
    return results


def _computed_and_mirrored(trace: SubdivisionTrace):
    """The records of a trace that the run computed, and those it mirrored:
    for an even or odd square-free part, the nodes in (-1, 0) below the
    root of either phase (the reciprocal's is even or odd too)."""
    if not solver._parity(trace.square_free):
        return trace.var_per_node, []
    computed, image = [], []
    for n in trace.var_per_node:
        (image if n.depth and n.interval.hi <= 0 else computed).append(n)
    return computed, image


def close_pair(k):
    """(3 2^k x - a)(3 2^k x - a - 3) for a = 2^k + 1: two real roots near
    1/3, 2^-k apart, neither dyadic."""
    a = (1 << k) + 1
    return product(poly(-a, 3 << k), poly(-a - 3, 3 << k))


def adversarial_inputs():
    """Inputs on which the float filter meets exact zeros, huge widths,
    deep trees and subnormal entries of the halving matrix."""
    rng = random.Random(91)
    x, x_minus_1, x_plus_1 = poly(0, 1), poly(-1, 1), poly(1, 1)
    dyadic = [poly(-1, 2), poly(3, 4), poly(-5, 8), poly(7, 2), poly(1, 16), poly(-3, 1)]
    cases = [product(*dyadic), product(*dyadic[:4], x, x_minus_1, x_plus_1)]
    cases += [product(*(poly(-k, 64) for k in range(27, 38)), poly(-3, 1))]  # a run of midpoints
    cases += [product(x, x_plus_1, poly(-1, 0, 4), poly(9, 0, -4)), product(x, x, x_minus_1)]
    cases += [product(chebyshev(9), chebyshev(9)), product(mignotte(12, 5), mignotte(12, 5))]
    cases += [mignotte(60, 1000), close_pair(80)]
    cases += [IntPolynomial([rng.randint(-(1 << 5000), 1 << 5000) for _ in range(64)])]
    cases += [IntPolynomial([1, -3] + [0] * 1098 + [1]), chebyshev(120)]
    cases += [poly(5), poly(-3), poly(0, 1), poly(-1, 2), poly(3, -4), poly(7, 1)]
    return cases


FAMILIES = ["dyadic", "midpoints", "cluster", "square", "mignotte", "pair", "huge", "chebyshev", "low"]


def family_input(family, seed):
    """An input of one of the adversarial ``FAMILIES``, drawn from ``seed``."""
    rng = random.Random(seed)
    if family == "dyadic":
        # dyadic roots inside and outside [-1, 1], at +-1 and 0, some repeated
        roots = [poly(-rng.randint(-40, 40), 1 << rng.randint(0, 5)) for _ in range(rng.randint(1, 7))]
        f = product(*roots, make_poly(rng, rng.randint(0, 5), 8))
    elif family == "midpoints":
        # a run of roots at consecutive dyadic midpoints j / 2^e
        e, count = rng.randint(2, 7), rng.randint(2, 11)
        count = min(count, 2 << e)  # no more than fit in [-1, 1]
        first = rng.randint(-(1 << e), (1 << e) - count)
        f = product(*(poly(-j, 1 << e) for j in range(first, first + count)), make_poly(rng, rng.randint(0, 3), 8))
    elif family == "cluster":
        # close roots near c / a, 2^-k apart
        k, a = rng.randint(10, 40), rng.choice([3, 5, 7])
        c = rng.randrange(1, a)
        offsets = rng.sample(range(-20, 20), rng.randint(2, 4))
        f = product(*(poly(-(c << k) - j, a << k) for j in offsets), make_poly(rng, rng.randint(0, 4), 8))
    elif family == "square":
        g = make_poly(rng, rng.randint(1, 10), 12)
        f = product(g, g, poly(-rng.randint(-8, 8), 1 << rng.randint(0, 4)))
    elif family == "mignotte":
        f = mignotte(rng.randint(3, 30), rng.randint(2, 200))
    elif family == "pair":
        f = product(close_pair(rng.randint(4, 70)), make_poly(rng, rng.randint(0, 4), 8))
    elif family == "huge":
        f = make_poly(rng, rng.randint(1, 24), rng.randint(200, 3000))
    elif family == "chebyshev":
        f = chebyshev(rng.randint(1, 40))
    else:
        f = make_poly(rng, rng.randint(0, 1), 20)
    return f


class TestFloatFilter:
    """Splits run in float64 with an exact fallback; the tree and every
    output must equal those of the exact integer loop kept above."""

    def test_golden_corpus_matches_exact_reference(self):
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        for line in corpus.read_text().splitlines():
            _same_as_reference(IntPolynomial.from_text(line))

    def test_adversarial_inputs_match_exact_reference(self):
        midpoint_roots = evaluations = 0
        for f in adversarial_inputs():
            _, res = _same_as_reference(f)
            midpoint_roots += sum(r.value.exp > 0 for r in res.exact_roots)
            evaluations += res.trace.midpoint_evaluations
        assert midpoint_roots >= 6 and evaluations >= midpoint_roots

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(0, 1 << 30))
    def test_families_match_exact_reference(self, family, seed):
        # both entry points equal the exact reference, node for node, and
        # their intervals and exact roots certify by exact arithmetic
        f = family_input(family, seed)
        unit, whole = _same_as_reference(f)
        _certify(f, unit, unit=True)
        _certify(f, whole)

    def test_clusters_match_exact_reference(self, monkeypatch):
        # Mignotte's close pair, its square, and clusters of close roots:
        # deep trees, in which nodes far below the last exact vector build
        # their own in one transform
        levels = []
        monkeypatch.setattr(solver, "_exact_vector", lambda g, iv: levels.append(iv.width().exp) or _exact_vector(g, iv))
        rng = random.Random(92)
        cases = [mignotte(rng.randint(30, 50), rng.randint(9, 200)) for _ in range(4)]
        cases += [product(g, g) for g in [mignotte(rng.randint(20, 40), rng.randint(9, 100)) for _ in range(2)]]
        for _ in range(4):
            k, a = rng.randint(10, 40), rng.choice([3, 5, 7])
            c = rng.randrange(1, a)
            offsets = rng.sample(range(-20, 20), rng.randint(2, 4))
            cluster = [poly(-(c << k) - j, a << k) for j in offsets]
            cases.append(product(*cluster, make_poly(rng, rng.randint(0, 4), 8)))
        for f in cases:
            _same_as_reference(f)
        # a node of depth k has width 2^(1 - k)
        assert len(levels) > 50 and max(levels) >= 100

    def test_no_exact_splits_on_uniform_samples(self, monkeypatch):
        # well-conditioned inputs: every sign certified in float64
        from rootiso.models import uniform_model

        calls = []
        monkeypatch.setattr(solver, "_bisect", lambda b: calls.append(len(b)) or _bisect(b))
        nodes = 0
        for d in (64, 128, 256):
            for index in range(3):
                trace = isolate_all(uniform_model(d, 32).sample(1, index)).trace
                nodes += trace.node_count
                assert trace.exact_nodes == 0  # the phase roots count in float too
                assert trace.exact_splits == 0 and trace.midpoint_evaluations == 0
        assert calls == [] and nodes > 18

    def test_exact_splits_at_most_tree_splits(self, monkeypatch):
        # each node is split exactly at most once and builds its vector at
        # most once, in one transform, however many of its descendants need
        # their exact vectors; a node takes at most one transform.  An even
        # or odd input computes only its root and the nodes in (0, 1): the
        # splits and transforms that run are exactly those of the computed
        # records, and the mirrored records of (-1, 0) are counted apart
        calls = {"bisect": 0, "build": 0, "split": 0}
        built = []
        split = solver._split_halves

        def counting_bisect(b):
            calls["bisect"] += 1
            return _bisect(b)

        def counting_build(g, interval):
            calls["build"] += 1
            built.append(interval)
            return _exact_vector(g, interval)

        def counting_split(node, g, first):
            calls["split"] += 1
            return split(node, g, first)

        monkeypatch.setattr(solver, "_bisect", counting_bisect)
        monkeypatch.setattr(solver, "_exact_vector", counting_build)
        monkeypatch.setattr(solver, "_split_halves", counting_split)
        exact_splits = bisects = builds = mirrored = 0
        for f in adversarial_inputs():
            for isolate in (isolate_unit, isolate_all):
                calls.update(bisect=0, build=0, split=0)
                built.clear()
                trace = isolate(f).trace
                assert calls["bisect"] <= calls["split"], f
                assert trace.exact_splits <= trace.exact_nodes <= trace.node_count
                assert trace.splits == sum(n.variations >= 2 for n in trace.var_per_node)
                assert all(n.exact_splits <= n.exact for n in trace.var_per_node)
                if isolate is isolate_unit:
                    computed, image = _computed_and_mirrored(trace)
                    # the pass of the root's vector that its halves share
                    # runs once, for (0, 1), and is charged to (-1, 0)
                    shared_root_pass = bool(image) and computed[0].exact and computed[1].exact
                    ran = sum(n.exact_splits for n in computed) + shared_root_pass
                    assert calls["bisect"] + calls["build"] == ran, f
                    assert calls["split"] == sum(n.variations >= 2 for n in computed), f
                    assert len(set(built)) == len(built), f
                    if image:
                        # one mirror per computed node below the root; the
                        # other shared passes swap within their pair
                        assert len(image) == len(computed) - 1
                        assert sum(n.exact for n in image) == sum(n.exact for n in computed[1:])
                        assert sum(n.exact_splits for n in image) == sum(
                            n.exact_splits for n in computed[1:]
                        ) + shared_root_pass, f
                    mirrored += len(image)
                exact_splits += trace.exact_splits
                bisects += calls["bisect"]
                builds += calls["build"]
        # both kinds of transform run: deep nodes build, siblings share splits
        assert exact_splits > 50 and bisects > 0 and builds > 0
        assert mirrored > 100

    def test_each_node_split_exactly_once(self, monkeypatch):
        # a split hands each half whose float signs are uncertain its exact
        # vector: its half of one exact split of the node's own vector,
        # which the two halves share, when the node holds one, and otherwise
        # one built from g on its interval; the vectors are those of the
        # chain of splits from the root, bit for bit
        bisects, builds = [], []
        monkeypatch.setattr(solver, "_bisect", lambda b: bisects.append(len(b)) or _bisect(b))
        monkeypatch.setattr(solver, "_exact_vector", lambda g, iv: builds.append(iv) or _exact_vector(g, iv))
        g = chebyshev(6)
        root = solver._phase_root(g)
        assert root.variations == 6 and root.exact is None and builds == []
        root.err = 1.0  # no entry of a child clears its bound
        children, _, _ = solver._split(root, g)
        # the root holds no exact vector: each child builds its own
        assert builds == [child.interval for child in children] and bisects == []
        assert [child.exact_splits for child in children] == [1, 1]
        halves = _bisect(_reference_root_vector(g))
        assert [child.exact for child in children] == list(halves)
        assert [child.variations for child in children] == [3, 3]
        # the left child's halves share one split of its vector
        children[0].err = 1.0
        left = solver._split(children[0], g)[0]
        assert len(bisects) == 1 and len(builds) == 2
        assert [node.exact_splits for node in left] == [1, 0]
        assert [node.exact for node in left] == list(_bisect(halves[0]))
        assert [node.variations for node in left] == list(map(sign_variations, _bisect(halves[0])))
        # the right child's reseeded image certifies its halves: no exact
        # work
        right = solver._split(children[1], g)[0]
        assert len(bisects) == 1 and len(builds) == 2
        assert all(node.exact is None and node.exact_splits == 0 for node in right)
        assert [node.variations for node in right] == list(map(sign_variations, _bisect(halves[1])))
        # a lone uncertain right half takes its half of the node's split and
        # is charged for it; the certified left half holds no vector
        node = solver._Node(children[0].interval, 1, None, 0.0, 0.0, 0, 0, 0)
        solver._read_exact(node, halves[0], 1)
        bound = solver._split(node, g)[0][0].err
        node.f = np.array([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.0]) * bound  # falls to 0 at the right end
        lone = solver._split(node, g)[0]
        assert len(bisects) == 2 and len(builds) == 2
        assert lone[0].exact is None and lone[0].exact_splits == 0 and lone[0].variations == 0
        assert lone[1].exact == _bisect(halves[0])[1] and lone[1].exact_splits == 1

    def test_popped_nodes_are_counted(self, monkeypatch):
        # every node that leaves a split or a phase root carries its count,
        # and each is popped once: none reaches the loop without it.  An
        # even or odd input's records of (-1, 0) below the root are
        # mirrored from counted ones, not popped: they are counted apart
        made = []
        split, phase_root, mirrored_root = solver._split_halves, solver._phase_root, solver._mirrored_root

        def splitting(node, g, first):
            children, mid, evaluated = split(node, g, first)
            if node.variations > 1:  # not the refinement's split of the leaf (-1, 1)
                made.extend(child.variations for child in children)
            return children, mid, evaluated

        def rooting(make):
            return lambda arg: made.append((root := make(arg)).variations) or root

        monkeypatch.setattr(solver, "_split_halves", splitting)
        monkeypatch.setattr(solver, "_phase_root", rooting(phase_root))
        monkeypatch.setattr(solver, "_mirrored_root", rooting(mirrored_root))
        mirrored = 0
        for f in adversarial_inputs():
            for isolate in (isolate_unit, isolate_all):
                made.clear()
                trace = isolate(f).trace
                computed, image = _computed_and_mirrored(trace)
                assert None not in made and len(made) == len(computed), f
                assert len(computed) + len(image) == trace.node_count
                mirrored += len(image)
        assert mirrored > 100

    def test_refinement_resolves_uncertain_apexes_exactly(self, monkeypatch):
        # a large positive root puts the reciprocal phase's leaf at (0, h]:
        # the refinement halves it towards 0 by the sign at each midpoint,
        # and where the apex there does not clear its bound that sign comes
        # from one exact evaluation; the refinement builds no exact vector
        inside = {"refine": 0, "split": 0}
        evaluated, built = [], []
        refine, split, evaluate = solver._refine_off_zero, solver._split, IntPolynomial.evaluate_dyadic

        def entered(key, fn):
            def wrapped(*args):
                inside[key] += 1
                try:
                    return fn(*args)
                finally:
                    inside[key] -= 1

            return wrapped

        def stepping():
            return inside["refine"] and not inside["split"]

        monkeypatch.setattr(solver, "_refine_off_zero", entered("refine", refine))
        monkeypatch.setattr(solver, "_split", entered("split", split))
        monkeypatch.setattr(
            IntPolynomial, "evaluate_dyadic", lambda g, x: stepping() and evaluated.append(x) or evaluate(g, x)
        )
        monkeypatch.setattr(
            solver, "_exact_vector", lambda g, iv: stepping() and built.append(iv) or _exact_vector(g, iv)
        )
        monkeypatch.setattr(solver, "_bisect", lambda b: stepping() and built.append(b) or _bisect(b))
        rng = random.Random(93)
        for k in (25, 30, 40, 50):
            wide = IntPolynomial([rng.randint(-(1 << 400), 1 << 400) for _ in range(6)])
            _same_as_reference(product(poly(-(1 << k) - 1, 3), wide))
        assert evaluated and built == []
        # every step's midpoint halves an interval with an end at 0
        assert all(abs(x.num) == 1 and x.exp > 0 for x in evaluated)

    def test_work_counts_on_a_cluster(self, monkeypatch):
        # mignotte(60, 1000): a deep tree down to a close pair, where the
        # float signs run out and the exact vectors take over
        evaluations = []
        evaluate = IntPolynomial.evaluate_dyadic
        monkeypatch.setattr(IntPolynomial, "evaluate_dyadic", lambda g, x: evaluations.append(x) or evaluate(g, x))
        trace = isolate_unit(mignotte(60, 1000)).trace
        assert trace.midpoint_evaluations == len(evaluations)
        assert 0 < trace.exact_nodes < trace.node_count
        assert 0 < trace.exact_splits <= trace.splits
        # the root counts from its float image; its exact vector is built
        # only for the deeper nodes
        assert not trace.var_per_node[0].exact and trace.var_per_node[0].depth == 0

    def test_bound_is_strict(self, monkeypatch):
        # a child entry exactly at its error bound is uncertain, and so is
        # an apex there: its sign comes from evaluating g at the midpoint,
        # and the child counts on its exact vector, built from g
        interval = DyadicInterval(Dyadic(-1), Dyadic(1))
        g = poly(-1, 0, 4)
        builds = []
        monkeypatch.setattr(solver, "_exact_vector", lambda g, iv: builds.append(iv) or _exact_vector(g, iv))

        def split(f, err):
            node = solver._Node(interval, 0, np.array(f), err, 1.0, 1, 1, 2)
            return solver._split(node, g)

        (probe, _), _, _ = split([1.0, 0.5, 1.0], 2.0**-40)
        bound = probe.err
        assert builds == [] and probe.exact is None
        halving = solver._halving_matrix(3)
        # the left half's float image is L f, the right's its mirror image
        assert (halving @ [0.0, 2 * bound, 0.0]).tolist() == [0.0, bound, bound]
        (left, right), mid, evaluated = split([0.0, 2 * bound, 0.0], 2.0**-40)
        assert evaluated and mid == g.evaluate_dyadic(Dyadic(0)).sign() == -1
        assert builds == [left.interval, right.interval]
        for half in (left, right):
            assert half.exact == _exact_vector(g, half.interval) and half.exact_splits == 1
            assert half.variations == sign_variations(half.exact)
        assert (halving @ [0.0, 2 * bound, 4 * bound]).tolist() == [0.0, bound, 2 * bound]
        (left, right), mid, evaluated = split([0.0, 2 * bound, 4 * bound], 2.0**-40)
        assert builds[2:] == [left.interval] and left.exact_splits == 1
        assert right.exact is None and right.exact_splits == 0 and right.variations == 0
        assert not evaluated and mid == 1


@functools.lru_cache(maxsize=8)
def _power_to_bernstein(coeffs):
    """C(d, i) b_i for b the Bernstein coefficients on [-1, 1] of the
    polynomial with power coefficients ``coeffs``: the coefficients of
    sum_j c_j (X - 1)^j (X + 1)^(d - j), by Horner in (X - 1) and (X + 1)."""
    acc, power = [coeffs[-1]], [1]
    for c in reversed(coeffs[:-1]):
        power = [a + b for a, b in zip(power + [0], [0] + power)]
        acc = [b - a + c * p for a, b, p in zip(acc + [0], [0] + acc, power)]
    return acc


def _krawtchouk(d, i, j):
    """[X^i] (X - 1)^j (X + 1)^(d - j)."""
    terms = range(max(0, i - d + j), min(i, j) + 1)
    return sum(math.comb(j, a) * (-1) ** (j - a) * math.comb(d - j, i - a) for a in terms)


class TestRootImage:
    """The phase root's float image, M c under the bound of ``_root_image``,
    and the exact root vector built only when a phase needs it."""

    def test_matrix_entries_correctly_rounded(self):
        for d in range(41):
            m = solver._degree(d + 1).matrix
            assert not m.flags.writeable and m.shape == (d + 1, d + 1)
            rows = range(d + 1)
            want = [[float(Fraction(_krawtchouk(d, i, j), math.comb(d, i))) for j in rows] for i in rows]
            assert m.tolist() == want, d
            assert np.abs(m).max() <= 1.0

    def test_matrix_cache_drops_least_recent_by_bytes(self, monkeypatch):
        # room for the entries of sizes 38, 40 and 41, matrices and exact
        # vectors' constants, and so for 38, 39 and 40: a fourth size drops
        # the least recently used, and an entry over the budget is kept alone
        # and served again without a rebuild
        assert isinstance(solver._degree, BoundedCache) and solver._degree.budget == solver._BERNSTEIN_CACHE_BYTES
        build = solver._degree.__wrapped__
        cache = BoundedCache(build, sum(build(n).nbytes for n in (38, 40, 41)))
        monkeypatch.setattr(solver, "_degree", cache)
        first = solver._degree(40).matrix
        solver._degree(39)
        solver._degree(38)
        assert solver._degree(40).matrix is first
        solver._degree(41)
        assert list(cache.entries) == [38, 40, 41]
        big = solver._degree(100)
        assert list(cache.entries) == [100]
        assert solver._degree(100) is big and list(cache.entries) == [100]

    def test_matrix_cache_shared_by_threads(self, monkeypatch):
        # threads that share the cache, over a budget that forces evictions,
        # all read correct matrices, and the cache keeps within its budget
        build = solver._degree.__wrapped__
        cache = BoundedCache(build, 4 * build(30).nbytes)
        monkeypatch.setattr(solver, "_degree", cache)
        want = {n: solver._build_bernstein_matrix(solver._binomials(n - 1)) for n in range(20, 31)}
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    n = rng.randint(20, 30)
                    if not np.array_equal(solver._degree(n).matrix, want[n]):
                        wrong.append(n)
            except Exception as exc:  # a thread's failure is reported, not lost
                wrong.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []
        assert sum(m.nbytes for m in cache.entries.values()) <= cache.budget

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["uniform", "mignotte", "chebyshev", "huge", "low", "x1100"]),
        st.integers(0, 1 << 30),
    )
    def test_image_within_bound(self, family, seed):
        rng = random.Random(seed)
        if family == "uniform":
            f = make_poly(rng, rng.randint(1, 80), rng.choice([8, 32, 64]))
        elif family == "mignotte":
            f = mignotte(rng.randint(3, 60), rng.randint(2, 1000))
        elif family == "chebyshev":
            f = chebyshev(rng.randint(0, 60))
        elif family == "huge":
            f = make_poly(rng, rng.randint(1, 24), rng.randint(200, 3000))
        elif family == "low":
            f = make_poly(rng, rng.randint(0, 1), rng.randint(1, 60))
        else:
            f = IntPolynomial([1, -3] + [0] * 1098 + [1])
        image, err, peak, shift = solver._root_image(f.coeffs)
        d = f.degree
        exact = _power_to_bernstein(f.coeffs)
        assert peak == np.abs(image).max() <= 1.0 and 0.0 < err
        bound = Fraction(err)
        for i, (got, k) in enumerate(zip(image.tolist(), exact)):
            assert abs(Fraction(got) - Fraction(k, math.comb(d, i) << shift)) <= bound, (f, i)

    def test_root_falls_back_on_an_exact_zero(self):
        # x^2 + 1 has Bernstein coefficients 2, 0, 2 on [-1, 1]: the zero
        # interior entry is never certified, so the root counts exactly
        f = poly(1, 0, 1)
        image, err, _, _ = solver._root_image(f.coeffs)
        assert image[1] == 0.0 < err
        # the direct root builds its vector in one transform; the
        # reciprocal phase's root mirrors it and takes none
        assert [(n.depth, n.exact, n.exact_splits) for n in isolate_all(f).trace.var_per_node] == [
            (0, True, 1),
            (0, True, 0),
        ]
        unit, _ = _reference_subdivide(square_free_part(f))
        # the root's vector is one direct build, that of the reference
        assert isolate_unit(f).trace.var_per_node == [
            NodeRecord(n.interval, n.variations, n.depth, exact=True, exact_splits=1) for n in unit.trace.var_per_node
        ]
        _same_as_reference(f)

    def test_root_vector_built_on_demand(self, monkeypatch):
        # the float root certifies, but deeper nodes of the unit phase need
        # exact vectors: they build their own, each once, and the root's is
        # never built; the reciprocal phase, all in float, builds none
        from rootiso.models import uniform_model

        calls = []
        monkeypatch.setattr(solver, "_exact_vector", lambda g, iv: calls.append((g, iv)) or _exact_vector(g, iv))
        for f in (chebyshev(14), mignotte(60, 1000)):
            for isolate in (isolate_unit, isolate_all):
                calls.clear()
                trace = isolate(f).trace
                roots = [n for n in trace.var_per_node if n.depth == 0]
                assert len(roots) == (1 if isolate is isolate_unit else 2)
                assert not any(n.exact for n in roots) and trace.exact_splits > 0
                assert calls and all(g == square_free_part(f) and iv.width() < 2 for g, iv in calls), f
                assert len(set(calls)) == len(calls) <= trace.exact_splits
            _same_as_reference(f)
        calls.clear()
        for d in (16, 64, 128):
            for index in range(3):
                isolate_all(uniform_model(d, 32).sample(1, index))
        assert calls == []


class TestMirroredRoot:
    """When fsq(0) != 0 the reciprocal phase's root is the direct root with
    alternate signs flipped: (-1)^(d-i) b_i, image and exact vector alike."""

    UNIT = DyadicInterval(Dyadic(-1), Dyadic(1))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(0, 1 << 30))
    def test_mirror_is_the_reciprocals_own_root(self, family, seed):
        fsq = square_free_part(family_input(family, seed))
        rsq = fsq.reciprocal()
        if fsq.coeffs[0] == 0:
            assert rsq.degree < fsq.degree
            return
        d = fsq.degree
        flipped = [-b if (d - i) & 1 else b for i, b in enumerate(_exact_vector(fsq, self.UNIT))]
        assert _exact_vector(rsq, self.UNIT) == flipped
        ends = [rsq.evaluate_dyadic(Dyadic(x)).sign() for x in (-1, 1)]
        # from a root counted in float, and from one counted on its vector
        root = solver._phase_root(fsq)
        held = solver._phase_root(fsq)
        solver._read_exact(held, _exact_vector(fsq, self.UNIT), 1)
        for direct in (root, held):
            mirrored = solver._mirrored_root(direct)
            assert mirrored.variations == sign_variations(flipped) == variations_in_interval(rsq, self.UNIT)
            assert [mirrored.lo, mirrored.hi] == ends
            assert (mirrored.interval, mirrored.depth) == (self.UNIT, 0)
            if direct.exact is None:
                assert mirrored.exact is None and mirrored.exact_splits == 0
            else:
                assert mirrored.exact == flipped and mirrored.exact_splits == 0
            # the flipped image lies within the direct root's bound of the
            # reciprocal's Bernstein coefficients, scaled as the direct's
            assert mirrored.err == direct.err and mirrored.peak == direct.peak
            if d <= 120 and direct is root:
                _, _, _, shift = solver._root_image(fsq.coeffs)
                exact = _power_to_bernstein(rsq.coeffs)
                for i, (got, k) in enumerate(zip(mirrored.f.tolist(), exact)):
                    assert abs(Fraction(got) - Fraction(k, math.comb(d, i) << shift)) <= Fraction(direct.err), i

    def test_mirror_unchanged_by_the_direct_subdivision(self, monkeypatch):
        # a split keeps the split node's exact vector, so the mirror is the
        # same taken before or after the direct phase: on the 200 seed-1
        # ``iso-cluster`` benchmark inputs, 30 of whose direct roots count
        # on their exact vector
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, corpus)  # for its dataclass
        spec.loader.exec_module(corpus)

        def fields(node):
            values = (getattr(node, field.name) for field in dataclasses.fields(node))
            return [v.tolist() if isinstance(v, np.ndarray) else v for v in values]

        checked = 0
        for item in corpus.build("iso-cluster", 1, 40):
            fsq = square_free_part(IntPolynomial(item.coeffs))
            root = solver._phase_root(fsq)
            if root.exact is None or fsq.coeffs[0] == 0:
                continue
            before = fields(solver._mirrored_root(root))
            solver._subdivide(fsq, root)
            assert fields(solver._mirrored_root(root)) == before, item.label
            checked += 1
        assert checked == 30

    def test_isolate_all_mirrors_unless_zero_is_a_root(self, monkeypatch):
        # an even Chebyshev polynomial mirrors its root; an odd one vanishes
        # at 0, so its reciprocal has degree d - 1 and its own phase root
        roots, mirrors = [], []
        phase_root, mirrored_root = solver._phase_root, solver._mirrored_root
        monkeypatch.setattr(solver, "_phase_root", lambda g: roots.append(g.degree) or phase_root(g))
        monkeypatch.setattr(solver, "_mirrored_root", lambda root: mirrors.append(root) or mirrored_root(root))
        for n, want_roots, want_mirrors in ((20, [20], 1), (21, [21, 20], 0), (41, [41, 40], 0)):
            roots.clear()
            mirrors.clear()
            f = chebyshev(n)
            _, whole = _same_as_reference(f)
            assert roots[-len(want_roots) :] == want_roots and len(mirrors) == want_mirrors, n
            _certify(f, whole)
            assert whole.root_count() == n


def parity_inputs():
    """Even and odd inputs: Chebyshev T_1..T_60 and 4^n T_n(x/4), each also
    negated; odd inputs with a root at 0 and dyadic roots at midpoints,
    x prod (4x^2 - m^2); squares of these; and degree 1 and 2."""
    x = poly(0, 1)
    cases = []
    for n in range(1, 61):
        for f in (chebyshev(n), scaled_chebyshev(n)):
            cases += [f, IntPolynomial([-c for c in f.coeffs])]
    cases += [product(x, chebyshev(n)) for n in (2, 8, 16, 31)]  # T_31 is odd: x^2 divides
    cases += [product(x, *(poly(-m * m, 0, 4) for m in range(1, k + 1))) for k in (1, 2, 3, 5, 8, 13)]
    # roots at the midpoints +-1/4, +-3/4 and +-(2j - 1)/8: several on one level
    cases += [product(x, *(poly(-m * m, 0, 64) for m in (1, 3, 5, 7)), poly(-1, 0, 16), poly(-9, 0, 16))]
    cases += [product(f, f) for f in cases[::9]]
    cases += [x, poly(0, -3), poly(-1, 0, 4), poly(1, 0, 1), poly(-1, 0, 1), poly(-2, 0, 1), poly(0, 0, 5)]
    return cases


class TestParityMirror:
    """An even or odd phase polynomial subdivides its root and (0, 1), and
    writes (-1, 0) as their mirror image: every record, interval, exact
    root and counter is that of the full run, in the same order."""

    def test_parity(self):
        assert [solver._parity(poly(*c)) for c in ([5], [0, 2], [1, 0, 3], [0, -1, 0, 4], [1, 1], [0, 1, 1])] == [
            1, -1, 1, -1, 0, 0,
        ]

    def test_same_as_the_full_run(self, monkeypatch):
        cases = parity_inputs()
        assert all(solver._parity(f) for f in cases)
        passes = []
        split = solver._split_halves
        monkeypatch.setattr(solver, "_split_halves", lambda node, g, first: passes.append(first) or split(node, g, first))
        mirrored = [[isolate_unit(f), isolate_all(f)] for f in cases]
        halves = len(passes)
        monkeypatch.setattr(solver, "_parity", lambda g: 0)
        passes.clear()
        full = [[isolate_unit(f), isolate_all(f)] for f in cases]
        assert 1 not in passes and halves < len(passes) * 3 / 4
        for f, got, want in zip(cases, mirrored, full):
            for a, b in zip(got, want):
                assert a.trace.var_per_node == b.trace.var_per_node, f
                assert a.intervals == b.intervals and a.exact_roots == b.exact_roots, f
                assert a.trace.square_free == b.trace.square_free

    def test_isolate_stats_unchanged(self, monkeypatch, tmp_path, capsys):
        cases = parity_inputs()
        path = tmp_path / "parity.txt"
        path.write_text("".join(f"{f.to_text()}\n" for f in cases))
        runs = []
        for parity in (solver._parity, lambda g: 0):
            monkeypatch.setattr(solver, "_parity", parity)
            assert main(["isolate", "--stats", "--input", str(path)]) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out == runs[1].out and runs[0].err == runs[1].err
        assert len(runs[0].err.splitlines()) == len(cases)

    def test_mirrored_leaves_refine_off_zero(self):
        # 4^n T_n(x/4) has roots outside [-1, 1]: the reciprocal phase's
        # leaves in (-1, 0) are mirrored nodes, and their refinement gives
        # the mirror images of the intervals in (0, 1)
        for n in (12, 13, 40):
            res = isolate_all(scaled_chebyshev(n))
            inverted = [iv.interval for iv in res.intervals if iv.inverted]
            assert inverted and sorted((-iv.hi, -iv.lo) for iv in inverted) == sorted((iv.lo, iv.hi) for iv in inverted)
            _certify(scaled_chebyshev(n), res)
            assert res.root_count() == n
