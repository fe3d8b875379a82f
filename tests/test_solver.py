import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import sympy
except ImportError:  # only the exact total count needs it
    sympy = None

from conftest import make_poly
from rootiso.cli import main
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    square_free_part,
    variations_in_interval,
)
from rootiso.regions import real_roots_from_oracle
from rootiso.solver import isolate_all, isolate_unit


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


def depth_of(interval):
    # unit-solver intervals have width 2^(1-depth)
    w = interval.width()
    return 0 if w.num == 2 else w.exp + 1


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

    def test_var_records_match_direct_definition(self):
        # incremental child transforms must agree with the Moebius formula
        rng = random.Random(23)
        for _ in range(100):
            f = make_poly(rng, rng.randint(1, 16), 16)
            res = isolate_unit(f)
            fsq = res.trace.square_free
            for node in res.trace.var_per_node:
                assert node.variations == variations_in_interval(fsq, node.interval)

    def test_width_bounded_by_root_variations(self):
        rng = random.Random(24)
        for _ in range(50):
            f = make_poly(rng, rng.randint(1, 20), 16)
            res = isolate_unit(f)
            by_depth = {}
            for node in res.trace.var_per_node:
                by_depth.setdefault(depth_of(node.interval), []).append(node.variations)
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

    def test_order_independence(self):
        rng = random.Random(28)
        for _ in range(40):
            f = make_poly(rng, rng.randint(1, 16), 16)
            fifo = isolate_unit(f)
            lifo = isolate_unit(f, _lifo=True)
            assert {iv.interval for iv in fifo.intervals} == {iv.interval for iv in lifo.intervals}
            assert sorted(r.value for r in fifo.exact_roots) == sorted(
                r.value for r in lifo.exact_roots
            )
            assert fifo.trace.node_count == lifo.trace.node_count


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
        # square-free part by the direct Moebius count and avoids 0
        rng = random.Random(31)
        cases = [make_poly(rng, rng.randint(1, 24), 16) for _ in range(40)]
        cases += [scaled_chebyshev(n) for n in range(2, 18)]
        refined = 0
        for f in cases:
            rsq = square_free_part(f.reciprocal())
            refined += sum(leaf.interval.straddles_zero() for leaf in isolate_unit(rsq).intervals)
            for iv in isolate_all(f).intervals:
                if not iv.inverted:
                    continue
                assert variations_in_interval(rsq, iv.interval) == 1
                assert iv.interval.lo.sign() > 0 or iv.interval.hi.sign() < 0
        assert refined > 0

    def test_golden_isolate_output(self, capsys):
        # `rootiso isolate --input` on a fixed structured corpus, one
        # polynomial per line: Chebyshev T_n, 4^n T_n(x/4), Mignotte
        # x^n - 2(ax - 1)^2, products with dyadic and +-1 roots, squares
        # and a cube, X^k factors, constants, a negated scaled Chebyshev
        # and a few random inputs.  The output is byte-stable: work on the
        # subdivision kernel must leave this digest unchanged.
        corpus = Path(__file__).parent / "data" / "golden_isolate.txt"
        assert main(["isolate", "--input", str(corpus)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "7290fb2319ffd25465b676a854b7c12fc394ee337d7d49268929fdd0047deddd"


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
            exact = {_actual(r.value.to_fraction(), r.inverted) for r in res.exact_roots}
            fsq = square_free_part(f)
            rsq = square_free_part(f.reciprocal())
            for root in exact:
                assert f.evaluate_fraction(root) == 0
            for inverted in (False, True):
                part = rsq if inverted else fsq
                spans = sorted((iv.interval for iv in res.intervals if iv.inverted == inverted), key=lambda j: j.lo)
                for a, b in zip(spans, spans[1:]):
                    assert a.hi <= b.lo
                for span in spans:
                    lo, hi = span.lo.to_fraction(), span.hi.to_fraction()
                    if inverted:
                        assert lo > 0 or hi < 0
                    ends = (_actual(lo, inverted), _actual(hi, inverted))
                    assert not any(min(ends) < root < max(ends) for root in exact)
                    coeffs = [Fraction(c) for c in part.coeffs]
                    for end in (lo, hi):
                        if _horner(coeffs, end) == 0:
                            assert _actual(end, inverted) in exact
                            coeffs = _deflate(coeffs, end)
                    assert _horner(coeffs, lo) * _horner(coeffs, hi) < 0, (f, span)
            if sympy is not None:
                # exact isolation by continued fractions; count_roots, a
                # Sturm sequence, gives the same counts 50x slower here
                count = len(sympy.Poly(f.coeffs[::-1], sympy.Symbol("x")).intervals())
                assert res.root_count() == count, f


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
