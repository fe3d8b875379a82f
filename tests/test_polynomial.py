import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_poly
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.polynomial import (
    _CHECK_PRIME,
    IntPolynomial,
    ZeroPolynomialError,
    _coprime_with_derivative_mod_p,
    mobius_test_poly,
    square_free_part,
    unit_rescale,
    unit_variations,
    variations_in_interval,
)
from rootiso.regions import real_roots_from_oracle


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

    def test_unit_rescale_on_root_interval_is_shift_and_homothety(self):
        # the solver builds its root image as f(2X - 1) from these two transforms
        full = DyadicInterval(Dyadic(-1), Dyadic(1))
        rng = random.Random(49)
        cases = [poly(0, 1), poly(0, 0, 0, 5), poly(-1, 0, 4), poly(1, -3, 0, 4)]
        cases += [make_poly(rng, rng.randint(0, 20), 24) for _ in range(60)]
        for g in cases:
            assert unit_rescale(g, full) == g.taylor_shift(-1).homothety(-1)


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


class TestModPCertificate:
    P61 = (1 << 61) - 1

    def test_check_prime_is_prime(self):
        # below 2^31, two products of residues fit int64 side by side
        assert _CHECK_PRIME < 1 << 31
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(_CHECK_PRIME)

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
                got = _coprime_with_derivative_mod_p(f)
                assert got == _reference_coprime_mod_p(f, _CHECK_PRIME)
                assert got == _reference_coprime_mod_p(f, self.P61)
                square_free += got
                repeated += not got
        assert square_free > 100 and repeated > 200

    def test_edge_cases_match_reference_at_same_prime(self):
        # the int64 Euclid must reproduce the pure-Python one modulo the
        # same prime on every input, including those it cannot certify
        p = _CHECK_PRIME
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
            assert _coprime_with_derivative_mod_p(f) == _reference_coprime_mod_p(f, p), f

    def test_leading_coefficient_divisible_by_p(self):
        # the certificate declines; the exact PRS fallback must still give
        # the square-free part the fraction-gcd oracle gives
        p = _CHECK_PRIME
        rng = random.Random(54)
        for _ in range(12):
            base = make_poly(rng, rng.randint(1, 4), 6)
            lead = IntPolynomial([rng.randint(-5, 5), p * rng.choice((1, -1, 3))])
            for f in (_multiply(base, lead), _multiply(_multiply(base, base), lead)):
                assert f.leading_coefficient % p == 0
                assert not _coprime_with_derivative_mod_p(f.primitive_part())
                got = square_free_part(f)
                gcd = _fraction_gcd(f, f.derivative())
                assert got.degree == f.degree - (len(gcd) - 1)
                assert got.leading_coefficient > 0 and got.content() == 1
                assert _fraction_gcd(got, f) == _monic_fractions(got)


def _ruffini_shift(f, c):
    """f(X + c) by the Ruffini-Horner double loop: the reference shift."""
    a = list(f.coeffs)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return IntPolynomial(a)


def _reference_coprime_mod_p(f, p):
    """The pure-Python Euclid certificate for gcd(f, f') = 1 modulo p."""
    a = [c % p for c in f.coeffs]
    b = [(i * c) % p for i, c in enumerate(f.coeffs)][1:]
    if not a or a[-1] == 0 or not b or b[-1] == 0:
        return False
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return False
        if len(b) == 1:
            return True
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
