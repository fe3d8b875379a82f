import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_poly
import rootiso.polynomial as polynomial
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.polynomial import (
    _CHECK_PRIME,
    _POINT_MARGIN,
    _ROOT_EXPONENT_CAP,
    IntPolynomial,
    ZeroPolynomialError,
    _coprime_with_derivative,
    _descending_primes,
    _gcd_with_derivative_mod_p,
    _root_exponent,
    _value_and_slope,
    mobius_test_poly,
    repeated_root_part,
    square_free_part,
    unit_rescale,
    unit_variations,
    variations_in_interval,
)
from rootiso.models import uniform_model
from rootiso import regions
from rootiso.regions import eps_real_separation, real_roots_from_oracle
from rootiso.solver import isolate_all


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestEvaluation:
    def test_examples(self):
        assert poly(1, 0, -1).evaluate_dyadic(Dyadic(0)) == Dyadic(1)
        assert poly(-1, 0, 4).evaluate_dyadic(Dyadic(1, 1)).is_zero
        assert poly(2, -1).evaluate_dyadic(Dyadic(3, 2)) == Dyadic(5, 2)

    def test_matches_fraction_horner(self):
        rng = random.Random(11)
        for _ in range(500):
            f = make_poly(rng, rng.randint(0, 10), 12)
            x = Dyadic(rng.randint(-1 << 10, 1 << 10), rng.randint(0, 8))
            assert f.evaluate_dyadic(x).to_fraction() == f.evaluate_fraction(x.to_fraction())


class TestNorms:
    def test_one_norm(self):
        assert poly(1, 0, -1).one_norm() == 2
        assert poly(3, -10, 3).one_norm() == 16

    def test_bitsize(self):
        assert poly(1, 0, -1).bitsize_tau() == 0
        assert poly(0, 0, 129).bitsize_tau() == 8
        assert poly(0, 255).bitsize_tau() == 8
        with pytest.raises(ZeroPolynomialError, match="zero polynomial"):
            IntPolynomial([]).bitsize_tau()


class TestTransforms:
    def test_reciprocal_examples(self):
        assert poly(5, 3, 2).reciprocal() == poly(2, 3, 5)
        assert poly(0, 1).reciprocal() == poly(1)

    def test_reciprocal_involution(self):
        rng = random.Random(12)
        for _ in range(200):
            f = make_poly(rng, rng.randint(0, 8), 10)
            if f.coefficient(0) == 0:
                continue
            assert f.reciprocal().reciprocal() == f

    def test_homothety_examples(self):
        assert poly(1, 1).homothety(1) == poly(2, 1)
        f = make_poly(random.Random(1), 5, 8)
        assert f.homothety(0) == f
        g = poly(-1, 0, 4).homothety(1)
        assert g == poly(-4, 0, 4)
        assert g.evaluate_dyadic(Dyadic(1)).is_zero
        assert g.evaluate_dyadic(Dyadic(-1)).is_zero

    def test_homothety_roots_scaled(self):
        rng = random.Random(13)
        for _ in range(100):
            f = make_poly(rng, rng.randint(1, 6), 8)
            k = rng.randint(-3, 3)
            x = Fraction(rng.randint(-20, 20), 16)
            # H_k maps a root r of f to 2^k r: check f(x) = 0-structure via values
            lhs = f.homothety(k).evaluate_fraction(x * (2**k))
            rhs = f.evaluate_fraction(x)
            if rhs == 0:
                assert lhs == 0

    def test_homothety_inverse_up_to_content(self):
        rng = random.Random(14)
        for _ in range(100):
            f = make_poly(rng, rng.randint(1, 6), 8).primitive_part()
            k = rng.randint(1, 4)
            back = f.homothety(k).homothety(-k).primitive_part()
            assert back == f.primitive_part()
            back2 = f.homothety(-k).homothety(k).primitive_part()
            assert back2 == f.primitive_part()

    def test_taylor_examples(self):
        assert poly(0, 0, 1).taylor_shift(1) == poly(1, 2, 1)
        f = make_poly(random.Random(2), 6, 10)
        assert f.taylor_shift(0) == f
        assert poly(3, -10, 3).taylor_shift(1) == poly(-4, -4, 3)

    def test_taylor_inverse(self):
        rng = random.Random(15)
        for _ in range(200):
            f = make_poly(rng, rng.randint(0, 10), 16)
            c = rng.randint(-50, 50)
            assert f.taylor_shift(c).taylor_shift(-c) == f

    def test_taylor_matches_ruffini_reference(self):
        # every degree up to 32 and a spread up to 300; coefficient widths
        # from 1 to 2000 bits, with zero coefficients and X^k factors
        rng = random.Random(51)
        widths = [1, 2, 7, 32, 33, 64, 65, 300, 2000]
        degrees = list(range(33)) + [47, 63, 64, 65, 100, 128, 200, 255, 256, 300]
        cases = [(d, widths[n % len(widths)]) for n, d in enumerate(degrees)]
        for d, width in cases + [(150, 1000), (300, 2000)]:
            bound = 1 << width
            coeffs = [rng.randint(-bound, bound) if rng.random() < 0.8 else 0 for _ in range(d + 1)]
            coeffs[-1] = coeffs[-1] or 1
            power_of_x = rng.choice([0, 0, 1, 3])
            f = IntPolynomial([0] * power_of_x + coeffs[: d + 1 - power_of_x])
            for c in (1, -1, 2, -2, 3, -3, rng.randint(-1000, 1000)):
                assert f.taylor_shift(c) == _ruffini_shift(f, c), (d, width, c)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(), max_size=40), st.integers(-1000, 1000))
    def test_taylor_shift_property(self, coeffs, c):
        f = IntPolynomial(coeffs)
        assert f.taylor_shift(c) == _ruffini_shift(f, c)


class TestVariations:
    def test_var_count_examples(self):
        assert poly(1, 0, -1).sign_variations() == 1
        assert poly(1, 1, 1).sign_variations() == 0
        assert poly(1, -3, 3, -1).sign_variations() == 3

    def test_var_in_interval_examples(self):
        f = poly(-1, 0, 4)
        full = DyadicInterval(Dyadic(-1), Dyadic(1))
        right = DyadicInterval(Dyadic(0), Dyadic(1))
        left = DyadicInterval(Dyadic(-1), Dyadic(0))
        assert mobius_test_poly(f, full) == poly(3, -10, 3)
        assert mobius_test_poly(f, right) == poly(3, -2, -1)
        assert mobius_test_poly(f, left) == poly(-1, -2, 3)
        assert variations_in_interval(f, full) == 2
        assert variations_in_interval(f, right) == 1
        assert variations_in_interval(f, left) == 1

    def test_descartes_parity_against_oracle(self):
        rng = random.Random(16)
        done = 0
        while done < 100:
            f = make_poly(rng, rng.randint(1, 8), 8)
            if f.coefficient(0) == 0 or square_free_part(f).degree != f.degree:
                continue
            positive = sum(1 for x in real_roots_from_oracle(f) if x > 1e-10)
            v = f.sign_variations()
            assert v >= positive
            assert (v - positive) % 2 == 0
            done += 1

    def test_subadditive_under_bisection(self):
        rng = random.Random(17)
        for _ in range(200):
            f = make_poly(rng, rng.randint(1, 10), 12)
            lo = Dyadic(rng.randint(-16, 14), 4)
            hi = lo + Dyadic(rng.randint(1, 16), 4)
            interval = DyadicInterval(lo, hi)
            left, right = interval.split()
            assert (
                variations_in_interval(f, left) + variations_in_interval(f, right)
                <= variations_in_interval(f, interval)
            )

    def test_unit_rescale_consistent_with_direct(self):
        # clearing denominators by 2^(L d) > 0 must not change signs
        rng = random.Random(18)
        for _ in range(100):
            f = make_poly(rng, rng.randint(1, 8), 10)
            lo = Dyadic(rng.randint(-64, 62), 6)
            hi = lo + Dyadic(rng.randint(1, 32), 6)
            interval = DyadicInterval(lo, hi)
            g = unit_rescale(f, interval)
            assert unit_variations(g) == variations_in_interval(f, interval)
            # the rescaled image evaluates to a positive multiple of f
            x = Fraction(rng.randint(1, 15), 16)
            target = f.evaluate_fraction(interval.lo.to_fraction() + interval.width().to_fraction() * x)
            got = g.evaluate_fraction(x)
            if target == 0:
                assert got == 0
            elif got != 0:
                assert (got > 0) == (target > 0)

    def test_unit_rescale_matches_horner_reference(self):
        rng = random.Random(51)
        cases = [IntPolynomial([]), poly(7), poly(0, 0, 3)]
        cases += [make_poly(rng, rng.randint(0, 24), rng.choice((4, 40))) for _ in range(300)]
        for f in cases:
            lo = Dyadic(rng.randint(-300, 300), rng.randint(0, 9))
            interval = DyadicInterval(lo, lo + Dyadic(rng.randint(1, 300), rng.randint(0, 9)))
            assert unit_rescale(f, interval) == _reference_unit_rescale(f, interval), (f, interval)

    def test_unit_rescale_on_root_interval_is_shift_and_homothety(self):
        # the solver builds its root image as f(2X - 1) from these two transforms
        full = DyadicInterval(Dyadic(-1), Dyadic(1))
        rng = random.Random(49)
        cases = [poly(0, 1), poly(0, 0, 0, 5), poly(-1, 0, 4), poly(1, -3, 0, 4)]
        cases += [make_poly(rng, rng.randint(0, 20), 24) for _ in range(60)]
        for g in cases:
            assert unit_rescale(g, full) == g.taylor_shift(-1).homothety(-1)


def _reference_unit_rescale(f, interval):
    """The Horner loop ``unit_rescale`` replaced: 2^(L d) f(a + w X) built
    in the linear form (an + wn X), rescaling each constant term."""
    if f.is_zero:
        return f
    a = interval.lo
    w = interval.width()
    level = max(a.exp, w.exp)
    an = a.num << (level - a.exp)
    wn = w.num << (level - w.exp)
    d = f.degree
    acc = [f.coeffs[d]]
    for i in range(d - 1, -1, -1):
        nxt = [0] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j] += c * an
            nxt[j + 1] += c * wn
        nxt[0] += f.coeffs[i] << (level * (d - i))
        acc = nxt
    return IntPolynomial(acc)


def _fraction_gcd(a, b):
    """Monic gcd over the rationals: the independent reference path."""
    a = [Fraction(c) for c in a.coeffs]
    b = [Fraction(c) for c in b.coeffs]

    def deg(p):
        return len(p) - 1

    def rem(p, q):
        p = p[:]
        while deg(p) >= deg(q) and any(p):
            if p[-1] == 0:
                p.pop()
                continue
            k = deg(p) - deg(q)
            ratio = p[-1] / q[-1]
            for i, c in enumerate(q):
                p[k + i] -= ratio * c
            p.pop()
        while p and p[-1] == 0:
            p.pop()
        return p

    while any(b):
        a, b = b, rem(a, b)
    return [c / a[-1] for c in a]  # monic


def _monic_fractions(f):
    lead = Fraction(f.coeffs[-1])
    return [Fraction(c) / lead for c in f.coeffs]


class TestSquareFree:
    def test_examples(self):
        assert square_free_part(poly(1, -2, 1)) == poly(-1, 1)
        assert square_free_part(poly(6, 0, -6)) == poly(-1, 0, 1)
        assert square_free_part(poly(-3, 9)) == poly(-1, 3)
        # (2x-1)^2 (x+1) = 4x^3 - 3x + 1
        assert square_free_part(poly(1, -3, 0, 4)) == poly(-1, 1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError, match="zero polynomial"):
            square_free_part(IntPolynomial([]))

    def test_against_fraction_gcd_oracle(self):
        rng = random.Random(19)
        for _ in range(60):
            base = make_poly(rng, rng.randint(1, 4), 6)
            extra = make_poly(rng, rng.randint(1, 3), 6)
            f = IntPolynomial([0])
            # multiply base^2 * extra to force a nontrivial gcd
            prod = _multiply(_multiply(base, base), extra)
            got = square_free_part(prod)
            gcd = _fraction_gcd(prod, prod.derivative())
            expected_deg = prod.degree - (len(gcd) - 1)
            assert got.degree == expected_deg
            assert got.leading_coefficient > 0
            assert got.content() == 1
            # same roots: got divides prod over Q and is square-free
            assert _fraction_gcd(got, got.derivative()) == [Fraction(1)]
            quot = _monic_fractions(prod)
            # every root of got is a root of prod: check gcd(got, prod) == monic(got)
            assert _fraction_gcd(got, prod) == _monic_fractions(got)

    def test_reciprocal_part_is_reversed_part(self):
        # isolate_all derives the reciprocal's square-free part from f's
        def normalized_reversal(g):
            r = g.reciprocal()
            return r.scale(-1) if r.leading_coefficient < 0 else r

        x, x_minus_1, x_plus_1 = poly(0, 1), poly(-1, 1), poly(1, 1)
        rng = random.Random(50)
        cases = [poly(0, 1), poly(0, 0, 1), poly(0, 0, 0, -3), poly(7), poly(-7)]
        for _ in range(40):
            f = make_poly(rng, rng.randint(1, 5), 8)
            for factor in (x, _multiply(x, x), _multiply(x, _multiply(x, x))):
                cases.append(_multiply(f, factor))
            cases.append(_multiply(f, f))
            cases.append(_multiply(_multiply(f, x_minus_1), _multiply(x_plus_1, x_plus_1)))
            cases.append(_multiply(f, poly(-2, 0, 0, -5)))
            cases.append(_multiply(f, poly(3, 0, -1)))
        assert any(f.leading_coefficient < 0 for f in cases)
        assert any(f.coefficient(0) < 0 for f in cases)
        for f in cases:
            assert square_free_part(f.reciprocal()) == normalized_reversal(square_free_part(f))


def _chebyshev(n):
    prev, cur = [1], [0, 1]
    for _ in range(n - 1):
        prev, cur = cur, [a - b for a, b in zip([0] + [2 * c for c in cur], prev + [0, 0])]
    return IntPolynomial(cur if n else prev)


def _parity_inputs():
    """Even and odd inputs, with the odd ones and x^2 h(x^2) holding a
    root at 0, and a few controls that are neither."""
    x = poly(0, 1)
    cheb = [_chebyshev(n) for n in range(1, 61)]
    scaled = [IntPolynomial([c * 4 ** (n - i) for i, c in enumerate(t.coeffs)]) for n, t in enumerate(cheb[:30], 1)]
    squares = [_multiply(t, t) for t in cheb[:24]] + [_multiply(t, t) for t in scaled[:12]]
    quartic = poly(1, 0, -5, 0, 4)  # (4x^2 - 1)(x^2 - 1)
    cases = cheb + scaled + squares
    cases += [_multiply(x, t) for t in cheb[1:20:2]]  # odd, a root at 0 beside T_n's
    cases += [_multiply(_multiply(x, x), quartic), _multiply(_multiply(x, x), cheb[5]), _multiply(_multiply(x, x), x)]
    cases += [_multiply(_multiply(x, x), _multiply(quartic, quartic)), _multiply(x, _multiply(quartic, quartic))]
    cases += [_multiply(_multiply(x, x), _multiply(x, cheb[6])), _multiply(_multiply(x, x), _multiply(x, x))]
    cases += [t.scale(-1) for t in cheb[:12]] + [t.scale(-3) for t in squares[:6]]  # negative, content > 1
    cases += [t.scale(6) for t in cheb[20:26]] + [_multiply(x, quartic).scale(-10)]
    cases += [poly(0, 1), poly(0, -2), poly(0, 0, 3), poly(-1, 0, 4), poly(2, 0, -1), poly(0, 0, 0, -1)]
    cases += [poly(0, -2, 0, 1), poly(0, 3, 0, 7), poly(1, 1), poly(1, 0, 1, 1), poly(0, 1, 1)]
    return cases


class TestParityReduction:
    """The square-free part of f = x^j h(x^2) from that of h, against a
    run with the reduction off."""

    def _full(self, monkeypatch):
        monkeypatch.setattr(polynomial, "_gcd_with_derivative", polynomial._gcd_at_full_degree)
        monkeypatch.setattr(regions, "_gcd_with_derivative", polynomial._gcd_at_full_degree)

    def test_matches_a_run_at_full_degree(self, monkeypatch):
        cases = _parity_inputs()
        got = [(square_free_part(f), repeated_root_part(f), polynomial._gcd_with_derivative(f.primitive_part())) for f in cases]
        self._full(monkeypatch)
        want = [(square_free_part(f), repeated_root_part(f), polynomial._gcd_with_derivative(f.primitive_part())) for f in cases]
        for f, a, b in zip(cases, got, want):
            assert a == b, f
            assert all(p.leading_coefficient > 0 and p.content() == 1 for p in a[2]), f
        for f in cases:
            if f.degree <= 12:
                _check_square_free_part(f)

    def test_runs_at_half_degree(self, monkeypatch):
        # gcd(f, f') runs at full degree only on h, of degree at most d / 2
        # (and again on its own half when h is even too); any other input
        # runs at its degree less its root at 0, which is split off first
        degrees = []
        full = polynomial._gcd_at_full_degree
        monkeypatch.setattr(polynomial, "_gcd_at_full_degree", lambda g: degrees.append(g.degree) or full(g))
        for f in _parity_inputs():
            degrees.clear()
            square_free_part(f)
            coeffs = f.coeffs
            j = next(i for i, c in enumerate(coeffs) if c)
            if not any(coeffs[j + 1 :: 2]):
                assert all(2 * d <= f.degree - j for d in degrees), (f, degrees)
            else:
                assert degrees == [f.degree - j], f
        # h(y) = (4y^2 - 1)^2 is even again: f = (4x^4 - 1)^2 runs at degree 2
        quartic = poly(-1, 0, 0, 0, 4)
        degrees.clear()
        assert square_free_part(_multiply(quartic, quartic)) == quartic and degrees == [2]
        assert square_free_part(_chebyshev(16)) == _chebyshev(16)
        assert repeated_root_part(_multiply(_chebyshev(9), _chebyshev(9))) == _chebyshev(9)

    def test_eps_real_separation(self, monkeypatch):
        x = poly(0, 1)
        cases = [_chebyshev(7), _multiply(_chebyshev(6), _chebyshev(6)), _multiply(x, _multiply(poly(-1, 0, 4), poly(-1, 0, 4)))]
        cases += [_multiply(_multiply(x, x), poly(-1, 0, 9)), poly(-1, 0, 4)]
        got = [eps_real_separation(f, 0.5 / f.degree) for f in cases]
        self._full(monkeypatch)
        assert got == [eps_real_separation(f, 0.5 / f.degree) for f in cases]
        assert got[1] == got[2] == got[3] == 0.0 and 0 < got[4] < math.inf


class TestRootAtZero:
    """gcd(f, f') and f / gcd(f, f') of f = x^j q, q(0) != 0, from those
    of q, against the gcd at full degree."""

    def _cases(self):
        rng = random.Random(61)
        g = uniform_model(40, 32).sample(1, 0)
        h = make_poly(rng, 7, 12)
        h2 = _multiply(h, h)
        bases = [g, g.scale(-3), h2, _multiply(h2, make_poly(rng, 5, 12)).scale(-1), _chebyshev(8)]
        x = poly(0, 1)
        for base in bases:
            assert base.coefficient(0) != 0
            f = base
            for j in range(1, 5):
                f = _multiply(x, f)
                yield j, base, f

    def test_matches_the_gcd_at_full_degree(self):
        for j, base, f in self._cases():
            fp = f.primitive_part()
            got = polynomial._gcd_with_derivative(fp)
            assert got == polynomial._gcd_at_full_degree(fp), (j, base)
            common, part = got
            assert common.coeffs[: j - 1] == (0,) * (j - 1) and common.coefficient(j - 1) != 0
            assert part.coeffs[0] == 0 and part.coefficient(1) != 0
            if f.degree <= 16:
                _check_square_free_part(f)

    def test_certificate_runs_on_q(self, monkeypatch):
        # a square-free q is certified at its own degree, and x^j q runs
        # no modular Euclid
        calls = []
        certify = polynomial._coprime_with_derivative
        euclid = polynomial._gcd_with_derivative_mod_p
        monkeypatch.setattr(polynomial, "_coprime_with_derivative", lambda g: calls.append(g.degree) or certify(g))
        monkeypatch.setattr(polynomial, "_gcd_with_derivative_mod_p", lambda g, p: calls.append((g.degree, p)) or euclid(g, p))
        g = uniform_model(64, 32).sample(1, 0)
        for j in range(1, 5):
            calls.clear()
            f = IntPolynomial((0,) * j + g.coeffs)
            assert square_free_part(f) == IntPolynomial((0, *_positive_primitive(g).coeffs))
            assert calls == [64], j


class TestModPCertificate:
    # the first two moduli of the modular gcd
    PRIMES = list(islice(_descending_primes(), 2))

    def test_check_prime_is_prime(self):
        # below 2^31, two products of residues fit int64 side by side
        assert _CHECK_PRIME < 1 << 31
        assert self.PRIMES[0] == _CHECK_PRIME
        sympy = pytest.importorskip("sympy")
        assert all(sympy.isprime(p) for p in islice(_descending_primes(), 40))

    def test_prime_source_matches_trial_division(self):
        # every prime below 2^31 from the top down, none skipped
        small = [q for q in range(2, 46341) if all(q % k for k in range(2, int(q**0.5) + 1))]
        expected = [n for n in range(_CHECK_PRIME, _CHECK_PRIME - 400, -1) if all(n % q for q in small)]
        assert len(expected) >= 12
        assert list(islice(_descending_primes(), len(expected))) == expected

    def test_matches_reference_on_both_primes(self):
        # generic inputs: square-free ones certify, repeated factors never do
        rng = random.Random(52)
        square_free = repeated = 0
        for _ in range(150):
            base = make_poly(rng, rng.randint(1, 40), rng.choice([4, 32, 100]))
            cases = [base, _multiply(base, base)]
            cases.append(_multiply(cases[1], make_poly(rng, rng.randint(1, 5), 8)))
            for f in cases:
                f = f.primitive_part()
                got = [_gcd_with_derivative_mod_p(f, p) for p in self.PRIMES]
                assert got == [_reference_gcd_mod_p(f, p) for p in self.PRIMES]
                assert len(got[0]) == len(got[1])
                square_free += got[0] == [1]
                repeated += len(got[0]) > 1
        assert square_free > 100 and repeated > 200

    def test_edge_cases_match_reference_at_same_prime(self):
        # the int64 Euclid must reproduce the pure-Python one modulo the
        # same prime on every input, including those it cannot certify
        for p in self.PRIMES:
            rng = random.Random(53)
            cases = []
            for d in (1, 2, 3, 8, 33, 100):
                # every coefficient congruent to p - 1: the widest residues
                cases.append(IntPolynomial([p - 1 + p * rng.randint(0, 9) for _ in range(d)] + [p - 1]))
                cases.append(IntPolynomial([-1 - p * rng.randint(0, 9) for _ in range(d + 1)]))
                # coefficients beyond int64, of both signs
                big = [rng.choice((-1, 1)) * rng.randint(1 << 64, 1 << 200) for _ in range(d + 1)]
                cases.append(IntPolynomial(big))
                cases.append(IntPolynomial([-c for c in big]))
                cases.append(_multiply(IntPolynomial(big[:3]), IntPolynomial(big[:3])))
                # sparse inputs, whose remainder sequences drop several degrees
                cases.append(IntPolynomial([1, 0, 1] + [0] * d + [1]))
                cases.append(IntPolynomial([0, 1] + [0] * d + [rng.randint(1, 7)]))
                # leading coefficient collapsing mod p
                cases.append(IntPolynomial([rng.randint(-9, 9) for _ in range(d)] + [p * rng.randint(1, 5)]))
            for f in cases:
                assert _gcd_with_derivative_mod_p(f, p) == _reference_gcd_mod_p(f, p), (f, p)

    def test_leading_coefficient_divisible_by_p(self):
        # the first prime declines; the next prime must still give the
        # square-free part the fraction-gcd oracle gives
        p = _CHECK_PRIME
        rng = random.Random(54)
        for _ in range(12):
            base = make_poly(rng, rng.randint(1, 4), 6)
            lead = IntPolynomial([rng.randint(-5, 5), p * rng.choice((1, -1, 3))])
            for f in (_multiply(base, lead), _multiply(_multiply(base, base), lead)):
                assert f.leading_coefficient % p == 0
                assert _gcd_with_derivative_mod_p(f.primitive_part(), p) is None
                got = square_free_part(f)
                gcd = _fraction_gcd(f, f.derivative())
                assert got.degree == f.degree - (len(gcd) - 1)
                assert got.leading_coefficient > 0 and got.content() == 1
                assert _fraction_gcd(got, f) == _monic_fractions(got)


class TestModularGcd:
    """``repeated_root_part`` on inputs where a prime is unlucky or one
    prime cannot hold the gcd's coefficients."""

    PRIMES = TestModPCertificate.PRIMES

    def _image_degrees(self, monkeypatch, f):
        # the pre-test declines, so that square-free inputs such as
        # x (x - p) still drive the prime loop
        monkeypatch.setattr(polynomial, "_coprime_with_derivative", lambda g: False)
        degrees = []

        def counting_gcd(g, p):
            # a combination that never divides f would run on forever
            assert len(degrees) < 40, degrees
            image = _gcd_with_derivative_mod_p(g, p)
            degrees.append(None if image is None else len(image) - 1)
            return image

        monkeypatch.setattr(polynomial, "_gcd_with_derivative_mod_p", counting_gcd)
        got = repeated_root_part(f)
        monkeypatch.undo()
        assert got.leading_coefficient > 0 and got.content() == 1
        assert _monic_fractions(got) == _fraction_gcd(f, f.derivative())
        return degrees

    def test_square_free_over_z_but_not_mod_p(self, monkeypatch):
        # (x - 1) (x - 1 - p) is (x - 1)^2 mod p: the first image has
        # degree 1 (a root at 0 would be split off before the gcd)
        f = _multiply(poly(-1, 1), poly(-1 - _CHECK_PRIME, 1))
        assert self._image_degrees(monkeypatch, f) == [1, 0]
        assert square_free_part(f) == f

    def test_lower_degree_restarts(self, monkeypatch):
        # (x + 1)^2 (x - 1) (x - 1 - p) has the image (x + 1) (x - 1) at
        # the first prime; the true gcd x + 1 appears at the next
        unlucky = _multiply(poly(-1, 1), poly(-1 - _CHECK_PRIME, 1))
        f = _multiply(_multiply(poly(1, 1), poly(1, 1)), unlucky)
        assert self._image_degrees(monkeypatch, f) == [2, 1]
        assert repeated_root_part(f) == poly(1, 1)
        assert square_free_part(f) == _multiply(poly(1, 1), unlucky)

    def test_wide_gcd_needs_several_primes(self, monkeypatch):
        rng = random.Random(55)
        for degree in (1, 2, 4):
            h = make_poly(rng, degree, 220)
            f = _multiply(_multiply(h, h), make_poly(rng, 3, 8))
            degrees = self._image_degrees(monkeypatch, f)
            assert len(degrees) >= 8 and set(degrees) == {degree}
            assert max(map(abs, repeated_root_part(f).coeffs)) > 1 << 200

    def test_divides_only_a_settled_representative(self, monkeypatch):
        # a representative that further primes would still change is not
        # tried: only the successful pair of divisions runs, however many
        # primes the gcd takes
        rng = random.Random(57)
        divisors = []
        divide = polynomial._exact_divide
        monkeypatch.setattr(polynomial, "_exact_divide", lambda f, g: divisors.append(g) or divide(f, g))
        for degree in (1, 3, 6):
            h = make_poly(rng, degree, 220)
            f = _multiply(_multiply(h, h), make_poly(rng, 3, 8))
            divisors.clear()
            assert repeated_root_part(f).degree == degree
            assert len(divisors) == 2, degree

    def test_unlucky_prime_after_a_lucky_one_is_skipped(self, monkeypatch):
        # (x - 1) (x - 1 - p) with p the second prime: its image there has
        # one degree more than the first, and must not enter the combination
        second = self.PRIMES[1]
        h = make_poly(random.Random(56), 3, 220)
        f = _multiply(_multiply(h, h), _multiply(poly(-1, 1), poly(-1 - second, 1)))
        degrees = self._image_degrees(monkeypatch, f)
        assert degrees[:3] == [3, 4, 3] and set(degrees[2:]) == {3}


def _check_square_free_part(f):
    """``repeated_root_part(f)`` is the fraction gcd up to content, and
    ``square_free_part(f)`` times it is a multiple of f (and equals sympy's
    ``sqf_part`` where sympy is present)."""
    got = square_free_part(f)
    common = repeated_root_part(f)
    assert _monic_fractions(common) == _fraction_gcd(f, f.derivative())
    assert _monic_fractions(_multiply(got, common)) == _monic_fractions(f)
    assert got == _positive_primitive(got)
    _check_against_sympy(f, got)


def _positive_primitive(f):
    f = f.primitive_part()
    return f.scale(-1) if f.leading_coefficient < 0 else f


def _check_against_sympy(f, got):
    try:
        import sympy
    except ImportError:
        return
    x = sympy.Symbol("x")
    expected = [int(c) for c in sympy.Poly(f.coeffs[::-1], x).sqf_part().all_coeffs()[::-1]]
    if expected[-1] < 0:
        expected = [-c for c in expected]
    assert list(got.coeffs) == expected


_small_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


class TestRepeatedRoots:
    @settings(max_examples=150, deadline=None)
    @given(_small_factor, _small_factor, _small_factor)
    def test_square_free_part_of_g_h2_k(self, g, h, k):
        g, h, k = IntPolynomial(g), IntPolynomial(h), IntPolynomial(k)
        f = _multiply(_multiply(g, _multiply(h, h)), k)
        _check_square_free_part(f)
        gh = _multiply(g, h)
        if _fraction_gcd(gh, gh.derivative()) == [Fraction(1)]:
            assert isolate_all(_multiply(gh, h)).to_json() == isolate_all(gh).to_json()

    def test_degree_256(self):
        # g of degree 128 and h of degree 64, uniform with tau = 8; the
        # fraction gcd is out of reach here, so g h is certified square-free
        # by the pure-Python Euclid modulo a prime that keeps its degree
        g = uniform_model(128, 8).sample(1, 0)
        h = uniform_model(64, 8).sample(1, 0)
        gh = _multiply(g, h)
        f = _multiply(gh, h)
        assert f.degree == 256
        assert gh.leading_coefficient % _CHECK_PRIME
        assert _reference_gcd_mod_p(gh, _CHECK_PRIME) == [1]
        got = square_free_part(f)
        assert got == _positive_primitive(gh)
        assert repeated_root_part(f) == _positive_primitive(h)
        _check_against_sympy(f, got)
        assert isolate_all(f).to_json() == isolate_all(gh).to_json()


_wide_factor = st.lists(st.integers(-(1 << 12), 1 << 12), min_size=1, max_size=4).filter(lambda c: c[-1] != 0)


def _coprime(f):
    return _coprime_with_derivative(f.primitive_part())


def _above_half_the_bound(t):
    """(x - a)^2 (x^2 + p x + q) for a just above 2^t, where the root
    exponent is t + 1: the double root a lies above half the root bound."""
    for a in range((1 << t) + 1, (1 << t) + (1 << t) // 32 + 2):
        f = _multiply(_multiply(poly(-a, 1), poly(-a, 1)), poly(round(0.9 * a * a), round(1.1 * a), 1))
        if _root_exponent(f.coeffs) == t + 1:
            yield f


class TestCoprimeWithDerivative:
    """The pre-test may decline a square-free input, but must never
    certify one with a repeated root."""

    @settings(max_examples=200, deadline=None)
    @given(_wide_factor, _wide_factor.filter(lambda c: len(c) > 1), _wide_factor)
    def test_never_certifies_g_h2_k(self, g, h, k):
        g, h, k = IntPolynomial(g), IntPolynomial(h), IntPolynomial(k)
        assert not _coprime(_multiply(_multiply(g, _multiply(h, h)), k))

    def test_complex_only_repeats(self):
        rng = random.Random(57)
        repeats = [poly(1, 0, 1), poly(1, 1, 1), poly(2, 0, 1), poly(1, 0, 0, 0, 1), poly(5, -2, 1)]
        for m in repeats:
            for _ in range(10):
                g = make_poly(rng, rng.randint(0, 6), 16)
                assert not _coprime(_multiply(_multiply(m, m), g))
                assert not _coprime(_multiply(_multiply(m, _multiply(m, m)), g))

    def test_repeated_root_above_half_the_root_bound(self):
        # the double root sits where a margin-free point 2^r + 1 would lie
        # within 2^(r - 1) of it; r runs up to the decline cap, so t = 15
        # is a repeated root near 2^16 that is still evaluated, not declined
        cases = [f for t in range(4, _ROOT_EXPONENT_CAP) for f in _above_half_the_bound(t)]
        assert len(cases) > 1000
        assert not any(map(_coprime, cases))

    def test_repeated_linear_factor_near_the_decline_bound(self):
        rng = random.Random(58)
        for a in [*range(1 << 13, (1 << 13) + 40), *range((1 << 14) - 40, 1 << 14)]:
            for sign in (1, -1):
                g = make_poly(rng, rng.randint(0, 4), 8)
                f = _multiply(_multiply(poly(-sign * a, 1), poly(-sign * a, 1)), g)
                if _root_exponent(f.coeffs) <= _ROOT_EXPONENT_CAP:
                    assert not _coprime(f), f

    def test_wide_coefficients(self):
        # 2000-bit coefficients, small roots: the gcd runs on ~2000-bit values
        rng = random.Random(59)
        for degree in (1, 2, 3):
            h = make_poly(rng, degree, 2000)
            g = make_poly(rng, 3, 2000)
            f = _multiply(_multiply(h, h), g)
            assert _root_exponent(f.coeffs) <= _ROOT_EXPONENT_CAP
            assert not _coprime(f)
            assert _coprime(_multiply(h, g))

    def test_zero_constant_term(self):
        rng = random.Random(60)
        x = poly(0, 1)
        for _ in range(20):
            g = make_poly(rng, rng.randint(1, 8), 16)
            if g.coefficient(0) == 0:
                continue
            # the proof holds with a root at 0, x being a factor m with
            # |m(xi)| = xi
            assert not _coprime(_multiply(_multiply(x, x), g))
            assert not _coprime(_multiply(_multiply(x, _multiply(x, x)), g))
            assert not _coprime(_multiply(x, _multiply(g, g)))

    def test_declines_roots_beyond_two_to_the_margin(self, monkeypatch):
        # r above the decline cap: no evaluation at all, and the modular
        # gcd still answers
        def no_evaluation(coeffs, x):
            raise AssertionError("evaluated an input with roots beyond the cap")

        big = 1 << (_ROOT_EXPONENT_CAP + 1)
        cases = {
            poly(-big, 1): poly(1),
            poly(-big * big - 1, 0, 1): poly(1),
            _multiply(poly(-big, 1), poly(-big, 1)): poly(-big, 1),
            _multiply(_multiply(poly(-1, 1), poly(-1, 1)), poly(big, 3)): poly(-1, 1),
        }
        for f, common in cases.items():
            assert _root_exponent(f.coeffs) > _ROOT_EXPONENT_CAP
            monkeypatch.setattr(polynomial, "_value_and_slope", no_evaluation)
            assert not _coprime(f)
            monkeypatch.undo()
            assert repeated_root_part(f) == common

    def test_degree_one(self):
        for b, a in ((0, 1), (3, -2), (-5, 7), (1 << 40, (1 << 40) + 1), (1 << 14, 1)):
            assert _coprime(poly(b, a))
            assert repeated_root_part(poly(b, a)) == poly(1)
        assert not _coprime(poly(1 << 20, 1))
        assert square_free_part(poly(1 << 20, 1)) == poly(1 << 20, 1)

    def test_root_exponent_bounds_every_root(self):
        rng = random.Random(61)
        cases = [poly(0, 1), poly(1, 1), poly(-1, 0, 0, 1), poly(3, 2), poly(1 << 30, 0, 1)]
        cases += [make_poly(rng, rng.randint(1, 12), rng.choice((2, 16, 40))) for _ in range(100)]
        cases += [f for t in (4, 9) for f in _above_half_the_bound(t)]
        # a root just above 2^10 and one above 2^13, beyond the bound with
        # each exponent rounded down instead of up
        cases.append(poly(-691856145333, -6888582941, -424964720, -199672, -434, 1))
        cases.append(poly(-16685537518291594, -84909203779445, -79234970640436, -7860261, -5576446, -1694, 1))
        for f in cases:
            roots = np.roots([float(c) for c in f.coeffs[::-1]])
            assert max(abs(roots)) < (1 << _root_exponent(f.coeffs)) * (1 + 1e-9), f
        # Fujiwara's bound is attained: x^d - c x^(d-1) - ... - c^(d-1) x - 2 c^d
        # has the root 2c, checked exactly
        for c in (1, 2, 3, 5, 7, 9, 17, 31, 33, 1023, 1025):
            for d in range(1, 7):
                f = IntPolynomial([-2 * c**d] + [-(c**i) for i in range(d - 1, 0, -1)] + [1])
                assert f.evaluate_dyadic(Dyadic(2 * c)).is_zero
                assert 2 * c < 1 << _root_exponent(f.coeffs), f

    def test_root_exponent_equals_the_per_coefficient_formula(self):
        # the formula with every ratio divided out, as in the docstring
        def reference(coeffs):
            lengths = [abs(c).bit_length() for c in coeffs]
            top = lengths.pop() - 1
            excess = [b - top for b in reversed(lengths)]
            return 1 + max((-(-e // i) for i, e in enumerate(excess, 1) if e > 0), default=0)

        def coefficient():
            width = rng.randint(0, 40)
            return rng.choice([0, rng.randint(-(1 << width), 1 << width)])

        rng = random.Random(62)
        cases = [[5], [-1], [0, 1], [7, -1], [1 << 40, 1], [-(1 << 40) + 1, 0, 0, -1]]
        for _ in range(3000):
            lead = rng.choice([1, -1, rng.randint(2, 1 << 40) * rng.choice((1, -1))])
            cases.append([coefficient() for _ in range(rng.randint(0, 14))] + [lead])
        for coeffs in cases:
            assert _root_exponent(coeffs) == reference(coeffs), coeffs

    # the samples of every uniform corpus of scripts/bench_sqfree.py
    UNIFORM = {16: 100, 64: 50, 128: 40, 256: 16, 512: 8, 1024: 8}

    @pytest.mark.parametrize("degree", list(UNIFORM))
    def test_certifies_uniform_samples(self, degree):
        # square-free, each certified at the point margin: every sample of
        # the corpus and never fewer than the first 40; 310 inputs
        model = uniform_model(degree, 32)
        samples = max(40, self.UNIFORM[degree])
        declined = [i for i in range(samples) if not _coprime(model.sample(1, i))]
        assert declined == [], (degree, _POINT_MARGIN)


class TestValueAndSlope:
    """One pass gives f(x) and f'(x), as Horner does for each."""

    @staticmethod
    def _horner(coeffs, x):
        value = slope = 0
        for c in reversed(coeffs):
            value = value * x + c
        for i in range(len(coeffs) - 1, 0, -1):
            slope = slope * x + i * coeffs[i]
        return value, slope

    def test_run_boundaries(self):
        # at runs of 32 and of 64 (``_RUN``): one run, one short of a run,
        # exactly one, one over, two, two and one, three, four and one
        rng = random.Random(62)
        for n in (2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 192, 193, 257):
            for x in (0, 1, -1, 3, (1 << 20) + 1, -(1 << 33) - 1):
                coeffs = [rng.randint(-(1 << 32), 1 << 32) for _ in range(n)]
                assert _value_and_slope(coeffs, x) == self._horner(coeffs, x), (n, x)

    def test_wide_coefficients(self):
        rng = random.Random(63)
        for n in (3, 40, 100):
            coeffs = [rng.randint(-(1 << 3000), 1 << 3000) for _ in range(n)]
            x = (1 << rng.randint(1, 40)) + 1
            assert _value_and_slope(coeffs, x) == self._horner(coeffs, x)

    def test_degree_one_has_a_constant_slope(self):
        for b, a in ((0, 1), (5, -3), (1 << 100, 7)):
            for x in (0, 2, -(1 << 17) - 1):
                assert _value_and_slope((b, a), x) == (b + a * x, a)


def _ruffini_shift(f, c):
    """f(X + c) by the Ruffini-Horner double loop: the reference shift."""
    a = list(f.coeffs)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return IntPolynomial(a)


def _reference_gcd_mod_p(f, p):
    """The pure-Python Euclid for the monic gcd of f and f' modulo p, its
    residues low first; None when a leading coefficient vanishes mod p."""
    a = [c % p for c in f.coeffs]
    b = [(i * c) % p for i, c in enumerate(f.coeffs)][1:]
    if not a or a[-1] == 0 or not b or b[-1] == 0:
        return None
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            inv = pow(a[-1], p - 2, p)
            return [c * inv % p for c in a]
        if len(b) == 1:
            return [1]
        a, b = b, _reference_rem_mod_p(a, b, p)


def _reference_rem_mod_p(a, b, p):
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        q = (r[-1] * inv) % p
        off = len(r) - 1 - db
        for i, c in enumerate(b):
            r[off + i] = (r[off + i] - q * c) % p
        r.pop()
    return r


def _multiply(a, b):
    out = [0] * (a.degree + b.degree + 2)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(out)


class TestFormats:
    def test_constructor_takes_integers_only(self):
        # a float or a string is never truncated or parsed into a
        # coefficient: x - 1/2 must not become x
        for bad in ([-0.5, 1], [1.7, 2.2], [1, 2.0], ["3", 1], [1, "x"]):
            with pytest.raises(TypeError):
                IntPolynomial(bad)
        f = IntPolynomial([True, np.int64(-3), np.uint8(2), 1 << 80, False, 0])
        assert f.coeffs == (1, -3, 2, 1 << 80)
        assert all(type(c) is int for c in f.coeffs)
        assert IntPolynomial(np.array([0, 4, 0], dtype=np.int32)) == poly(0, 4)
        assert IntPolynomial([0, 0]).coeffs == () and IntPolynomial(()).is_zero

    def test_text_round_trip(self):
        f = poly(-1, 0, 4)
        assert f.to_text() == "-1 0 4"
        assert IntPolynomial.from_text("-1 0 4") == f
        assert IntPolynomial.from_text(" -1\t0  4 \n") == f

    def test_text_trims_trailing_zeros(self):
        assert IntPolynomial.from_text("1 2 0 0") == poly(1, 2)

    def test_text_errors(self):
        with pytest.raises(ValueError):
            IntPolynomial.from_text("")
        with pytest.raises(ValueError, match="1a"):
            IntPolynomial.from_text("3 1a 2")

    def test_json_round_trip(self):
        f = poly(-1, 0, 4)
        assert f.to_json() == {"coeffs": ["-1", "0", "4"]}
        assert IntPolynomial.from_json(f.to_json()) == f
