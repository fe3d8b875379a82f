import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rootiso.polynomial as polynomial
import rootiso.regions as regions
from conftest import make_poly
from rootiso.condition import global_condition_bracket, separation_epsilon
from rootiso.dyadic import Dyadic, DyadicInterval
from rootiso.models import uniform_model
from rootiso.polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    repeated_root_part,
    square_free_part,
    variations_in_interval,
)
from rootiso.regions import (
    NoConvergenceError,
    count_roots_in_cover,
    cover_root_count_bound,
    disk_cover,
    distance_to_interval,
    eps_real_separation,
    numeric_roots,
    obreshkoff_discs,
    root_set_separation,
    roots_in_cover,
)

# uniform tau = 32 sample on which the oracle is known not to converge
NON_CONVERGENT = uniform_model(256, 32).sample(1, 6)


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestDiskCover:
    def test_degree_four_values(self):
        cover = disk_cover(4)
        assert cover.N == 2
        by_n = {n: (c, r) for n, c, r in cover.disks()}
        assert by_n[0] == (Dyadic(0), Dyadic(3, 3))
        assert by_n[1] == (Dyadic(5, 3), Dyadic(3, 4))
        assert by_n[2] == (Dyadic(3, 2), Dyadic(3, 3))

    def test_symmetry(self):
        for d in (2, 4, 16, 64, 256):
            cover = disk_cover(d)
            by_n = {n: (c, r) for n, c, r in cover.disks()}
            for n in range(1, cover.N + 1):
                assert by_n[-n][0] == -by_n[n][0]
                assert by_n[-n][1] == by_n[n][1]

    def test_built_once_per_degree(self):
        assert disk_cover(16) is disk_cover(16)

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            disk_cover(1)

    def test_disk_count(self):
        for d in (2, 5, 16, 100):
            cover = disk_cover(d)
            assert len(cover.centers) == 2 * cover.N + 1
            assert cover.N == math.ceil(math.log2(d))

    def test_interval_cover_small_degrees(self):
        # closed disks cover [-1, 1] while the outer disks stay wide
        # relative to the inner gap (N <= 2)
        for d in (2, 3, 4):
            cover = disk_cover(d)
            for x in np.arange(-1.0, 1.0 + 1e-9, 1e-4):
                assert cover.contains(complex(x, 0.0), margin=-1e-12), (d, x)

    @pytest.mark.xfail(
        reason="the 2N+1 disk family leaves the gaps +-(3/8, 7/16) uncovered "
        "once N >= 3; the stated cover of [-1, 1] does not hold there",
        strict=True,
    )
    def test_interval_cover_degree_16(self):
        cover = disk_cover(16)
        for x in np.arange(-1.0, 1.0 + 1e-9, 1e-4):
            assert cover.contains(complex(x, 0.0), margin=-1e-12)


class TestCoverRootBound:
    def test_value_for_x_squared_plus_one(self):
        f = poly(1, 0, 1)
        # disks for d = 2 sit at 0, +-1/2; exact values f = 1, 5/4, 5/4
        expect = math.log2(2 * math.e) + 2 * math.log2(2 * math.e / 1.25)
        assert cover_root_count_bound(f) == pytest.approx(expect, rel=1e-12)

    def test_vanishing_center_gives_infinity(self):
        assert cover_root_count_bound(poly(0, 1, 0, 1)) == math.inf

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            cover_root_count_bound(IntPolynomial([]))

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            cover_root_count_bound(poly(1, 2))
        with pytest.raises(ValueError):
            count_roots_in_cover(poly(1, 2))

    def test_bound_dominates_count(self):
        rng = random.Random(41)
        for _ in range(100):
            f = make_poly(rng, rng.randint(2, 32), 16)
            bound = cover_root_count_bound(f)
            counts = count_roots_in_cover(f)
            assert bound >= counts.max


class TestCountRoots:
    def test_examples(self):
        assert count_roots_in_cover(poly(-1, 0, 4)).min == 2
        assert count_roots_in_cover(poly(-1, 0, 4)).max == 2
        assert count_roots_in_cover(poly(4, 0, 1)).max == 0
        # roots on |z| = 2: outside every disk
        assert count_roots_in_cover(poly(-16, 0, 0, 0, 1)).max == 0

    def test_range_is_ordered(self):
        rng = random.Random(42)
        for _ in range(50):
            f = make_poly(rng, rng.randint(2, 16), 12)
            counts = count_roots_in_cover(f)
            assert 0 <= counts.min <= counts.max <= f.degree


class TestNumericRoots:
    def test_examples(self):
        assert numeric_roots(poly(1, 0, 1)).roots == (complex(0, -1), complex(0, 1))
        r = numeric_roots(poly(-1, 0, 4)).roots
        assert abs(r[0] + 0.5) < 1e-10 and abs(r[1] - 0.5) < 1e-10
        r3 = numeric_roots(poly(0, -1, 0, 1)).roots
        assert [round(z.real) for z in r3] == [-1, 0, 1]

    def test_deterministic(self):
        f = make_poly(random.Random(43), 20, 24)
        assert numeric_roots(f).roots == numeric_roots(f).roots

    def test_multiset_size_is_square_free_degree(self):
        # (2x-1)^2 (x+1) has square-free part of degree 2
        rs = numeric_roots(poly(1, -3, 0, 4))
        assert len(rs.roots) == 2
        # fewer roots than the degree exactly when f has a repeated root,
        # which `rootiso analyze` relies on to skip the repeated-root check
        rng = random.Random(50)
        double = _mul(poly(-1, 2), poly(-1, 2))
        cases = [make_poly(rng, rng.randint(1, 24), 16) for _ in range(20)]
        cases += [
            double,
            poly(0, 3, -1, 5),  # a simple root at 0
            poly(0, 0, 0, 2, 1),  # a triple root at 0
            _mul(_mul(double, double), poly(3, 0, 1)),
            _mul(_mul(poly(1, 1), poly(1, 1)), _mul(poly(0, 1), poly(-7, 0, 4))),
        ]
        for f in cases:
            g = square_free_part(f)
            assert len(numeric_roots(f).roots) == g.degree

    def test_known_rational_roots(self):
        rng = random.Random(44)
        for _ in range(30):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(2, 5)))
            f = poly(1)
            for r in roots:
                f = _mul(f, poly(-r, 1))
            got = sorted(z.real for z in numeric_roots(f).roots)
            assert sum(abs(a - b) for a, b in zip(got, roots)) <= 1e-8
            assert all(abs(z.imag) < 1e-10 for z in numeric_roots(f).roots)

    def test_residual_contract(self):
        rng = random.Random(45)
        for _ in range(50):
            f = make_poly(rng, rng.randint(1, 24), 20)
            rs = numeric_roots(f)
            assert rs.residual_bound <= 1e-10
            g = square_free_part(f)
            norm = float(g.one_norm())
            cs = np.array(g.coeffs[::-1], dtype=float)
            for z in rs.roots:
                if abs(z) <= 1.0:
                    assert abs(np.polyval(cs, z)) <= rs.residual_bound * norm * (1 + 1e-9)

    def test_non_convergence_diagnostics(self):
        with pytest.raises(NoConvergenceError) as info:
            numeric_roots(NON_CONVERGENT)
        exc = info.value
        assert (exc.degree, exc.sweeps, exc.tol) == (256, regions._MAX_SWEEPS, 1e-10)
        assert not exc.residual <= exc.tol
        message = str(exc)
        assert "degree 256" in message and f"{regions._MAX_SWEEPS} sweeps" in message
        assert f"last residual {exc.residual:.3g}" in message and "tol 1e-10" in message

    def test_sweeps_counted(self):
        rng = random.Random(46)
        for _ in range(10):
            f = make_poly(rng, rng.randint(1, 24), 20)
            assert 0 < numeric_roots(f).sweeps < regions._MAX_SWEEPS
        # the count is a work figure, not part of the root set's value
        assert regions.ComplexRootSet(roots=(), residual_bound=0.0).sweeps == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            numeric_roots(poly(5))
        with pytest.raises(ZeroPolynomialError):
            numeric_roots(IntPolynomial([]))


def _cpolyval(coeffs_desc, z):
    """One Horner pass per polynomial, as the oracle once evaluated g, g'
    and the backward-error scale: the reference for ``_evaluate``."""
    acc = np.full(z.shape, coeffs_desc[0], dtype=complex)
    for c in coeffs_desc[1:]:
        acc = acc * z + c
    return acc


def _same_bits(a, b):
    """Equal float64 bit patterns in real and imaginary parts, any NaN
    equal to any NaN."""
    a, b = (np.ascontiguousarray(v, dtype=complex).view(np.float64) for v in (a, b))
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


class TestFusedEvaluator:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 257])
    def test_rows_match_separate_passes_bit_for_bit(self, d):
        rng = random.Random(60 + d)
        cases = [make_poly(rng, d, 40) for _ in range(3)]
        # a zero constant term: a root at 0
        cases.append(IntPolynomial((0, *make_poly(rng, d - 1, 40).coeffs)) if d > 1 else poly(0, 3))
        for g in cases:
            coeffs = np.array(g.coeffs[::-1], dtype=float)
            deriv = np.array(g.derivative().coeffs[::-1], dtype=float)
            for scale in (1e-3, 1.0, 1.5, 1e150):
                # on and off the axes; at 1e150 the powers overflow to inf
                # and then NaN within the pass.  A diverged iterate can be
                # infinite itself.
                z = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d + 5)]) * scale
                z[:4] = (0j, scale + 0j, -1j * scale, complex(math.inf, scale))
                want = (_cpolyval(coeffs, z), _cpolyval(np.abs(coeffs), np.abs(z)), _cpolyval(deriv, z))
                got = regions._evaluate(regions._horner_table(g, z.size), z)
                assert got.shape == (3, z.size)
                for row, ref in zip(got, want):
                    assert _same_bits(row, ref), (d, scale)
            if d >= 16:
                assert not np.isfinite(got).all()  # the overflow case was reached

    def test_same_bits_tells_values_apart(self):
        z = np.array([1.0 + 0j, complex(math.nan, 0.0), -0.0j])
        assert _same_bits(z, z.copy())
        assert not _same_bits(z, z * (1 + 2.0**-52))
        assert not _same_bits(z, np.array([1.0 + 0j, complex(math.nan, 0.0), 0j]))


def _mul(a, b):
    out = [0] * (a.degree + b.degree + 2)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(out)


class TestObreshkoff:
    def test_zero_index_is_diameter_disc(self):
        discs = obreshkoff_discs(DyadicInterval(Dyadic(0), Dyadic(1)), 0)
        assert discs.center_offset == pytest.approx(0.0, abs=1e-12)
        assert discs.radius == pytest.approx(0.5, rel=1e-12)

    def test_boundaries_pass_through_endpoints(self):
        rng = random.Random(46)
        for _ in range(100):
            lo = Dyadic(rng.randint(-32, 30), 5)
            interval = DyadicInterval(lo, lo + Dyadic(rng.randint(1, 16), 5))
            rho = rng.randint(0, 32)
            discs = obreshkoff_discs(interval, rho)
            for endpoint in (float(interval.lo), float(interval.hi)):
                for center in (discs.upper_center, discs.lower_center):
                    assert abs(abs(endpoint - center) - discs.radius) <= 1e-12 * discs.radius
            width = float(interval.width())
            assert 2 * discs.radius == pytest.approx(
                width / math.sin(math.pi / (rho + 2)), rel=1e-12
            )

    def test_area_grows_and_lens_shrinks(self):
        interval = DyadicInterval(Dyadic(-1, 2), Dyadic(3, 2))
        rng = random.Random(47)
        pairs = [
            (obreshkoff_discs(interval, r), obreshkoff_discs(interval, r + 1)) for r in range(12)
        ]
        for _ in range(2000):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for small, big in pairs:
                if small.in_area(z):
                    assert big.in_area(z)
                if big.in_lens(z):
                    assert small.in_lens(z)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            obreshkoff_discs(DyadicInterval(Dyadic(0), Dyadic(1)), -1)

    def test_variation_sandwich(self):
        # lens_d count <= var(f, J) <= area_d count, skipping pairs with a
        # root too close to a disc boundary for the float oracle
        rng = random.Random(48)
        done = 0
        while done < 60:
            f = make_poly(rng, rng.randint(1, 10), 10)
            lo = Dyadic(rng.randint(-16, 14), 4)
            interval = DyadicInterval(lo, lo + Dyadic(rng.randint(1, 8), 4))
            discs = obreshkoff_discs(interval, f.degree)
            roots = numeric_roots(f).roots
            margin = 1e-9
            if any(
                min(
                    abs(abs(z - discs.upper_center) - discs.radius),
                    abs(abs(z - discs.lower_center) - discs.radius),
                )
                < margin
                for z in roots
            ):
                continue
            in_lens = sum(1 for z in roots if discs.in_lens(z))
            in_area = sum(1 for z in roots if discs.in_area(z))
            v = variations_in_interval(f, interval)
            assert in_lens <= v <= in_area
            done += 1


class TestSeparationNearInterval:
    def test_distance_to_interval(self):
        assert distance_to_interval(complex(0.5, 0.0)) == 0.0
        assert distance_to_interval(complex(0.0, 0.25)) == 0.25
        assert distance_to_interval(complex(2.0, 0.0)) == 1.0
        assert distance_to_interval(complex(-1.0, -0.5)) == 0.5

    def test_examples(self):
        assert eps_real_separation(poly(-1, 0, 4), 0.3) == pytest.approx(1.0, abs=1e-10)
        assert eps_real_separation(poly(1, 0, 1), 0.1) == math.inf
        assert eps_real_separation(poly(1, -4, 4), 0.3) == 0.0

    def test_eps_range_validation(self):
        with pytest.raises(ValueError):
            eps_real_separation(poly(-1, 0, 4), 0.5)  # 1/d = 0.5 excluded
        with pytest.raises(ValueError):
            eps_real_separation(poly(-1, 0, 4), -0.1)

    def test_far_double_root_not_flagged(self):
        # (x - 3)^2 has its repeated root far outside the strip
        f = _mul(poly(-3, 1), poly(-3, 1))
        assert eps_real_separation(f, 0.2) == math.inf

    def test_constant_has_no_roots(self):
        assert eps_real_separation(poly(7), 0.5) == math.inf

    def test_one_gcd_of_f(self, monkeypatch):
        # the repeated part and the square-free part come from one gcd
        calls = []
        gcd = polynomial._gcd_with_derivative

        def counting_gcd(fp):
            calls.append(fp)
            return gcd(fp)

        monkeypatch.setattr(polynomial, "_gcd_with_derivative", counting_gcd)
        monkeypatch.setattr(regions, "_gcd_with_derivative", counting_gcd)
        square = _mul(poly(-1, 0, 4), poly(-1, 0, 4))
        for f in (poly(-1, 0, 4), uniform_model(16, 32).sample(1, 0), square, square.scale(-3)):
            calls.clear()
            eps_real_separation(f, 0.5 / f.degree)
            assert calls.count(f.primitive_part()) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            # a x - b with the real root b / a just outside [-1, 1]
            st.builds(
                lambda a, k, sign: poly(-sign * (a + k), a),
                st.integers(1, 64), st.integers(1, 4), st.sampled_from([1, -1]),
            ),
            # (a x - c)^2 + s^2 with the complex roots (c +- i s) / a near it
            st.builds(
                lambda a, c, s: poly(c * c + s * s, -2 * a * c, a * a),
                st.integers(2, 64), st.integers(-64, 64), st.integers(1, 4),
            ).filter(lambda h: abs(h.coeffs[1]) <= 2 * h.coeffs[2]),
        ),
        st.integers(2, 3),
        st.lists(st.integers(-16, 16), min_size=1, max_size=6).filter(lambda c: c[-1] != 0),
    )
    def test_no_repeated_root_within_the_certified_epsilon(self, h, multiplicity, cofactor):
        # separation_epsilon's argument: for a finite certified upper end U
        # of the condition, no repeated root lies within 1/(e d U) of the
        # interval, so the oracle's square-free root set gives the separation
        f = IntPolynomial(cofactor)
        for _ in range(multiplicity):
            f = _mul(f, h)
        upper = global_condition_bracket(f, max_grid=1 << 16).upper
        assume(math.isfinite(upper))
        eps = separation_epsilon(f, upper)
        repeated = repeated_root_part(f)
        assert repeated.degree >= 1
        assert all(distance_to_interval(z) > eps for z in numeric_roots(repeated).roots)
        assert root_set_separation(numeric_roots(f), eps) == eps_real_separation(f, eps)


class TestRootSetFunctions:
    """The oracle-free halves of the separation and the cover count give
    the same answers as the functions that run the oracle themselves, and
    the cover count the same as the per-root loop it replaced."""

    def test_agree_with_oracle_functions(self):
        rng = random.Random(47)
        for _ in range(40):
            f = make_poly(rng, rng.randint(2, 24), 16)
            roots, cover = numeric_roots(f), disk_cover(f.degree)
            assert roots_in_cover(roots, cover) == count_roots_in_cover(f)
            assert roots_in_cover(roots, cover) == _reference_roots_in_cover(roots, cover)
            # random inputs have no repeated root, so the equality holds at
            # every eps
            assert len(roots.roots) == f.degree
            for eps in (0.0, 0.25 / f.degree, 0.99 / f.degree):
                assert root_set_separation(roots, eps) == eps_real_separation(f, eps)

    def test_cover_count_matches_at_disk_boundaries(self):
        # points at distance r +- margin from each centre, and one ulp to
        # either side of it, along the real axis, the imaginary axis and
        # two oblique directions
        for d in (2, 5, 16, 64):
            cover = disk_cover(d)
            for margin in (0.0, 1e-9, 1e-3):
                points = []
                for c, r in zip(cover.centers, cover.radii):
                    for dist in (float(r) - margin, float(r) + margin):
                        for t in (np.nextafter(dist, 0.0), dist, np.nextafter(dist, 2.0)):
                            for angle in (0.0, math.pi / 2, math.pi, 0.7, -2.3):
                                points.append(float(c) + float(t) * complex(math.cos(angle), math.sin(angle)))
                roots = regions.ComplexRootSet(roots=tuple(points), residual_bound=0.0)
                assert roots_in_cover(roots, cover) == _reference_roots_in_cover(roots, cover)
                for m in (margin, -margin):
                    inside = [_reference_contains(cover, z, m) for z in points]
                    assert cover.contains(points, m).tolist() == inside
                    assert [bool(cover.contains(z, m)) for z in points] == inside

    def test_cover_count_of_empty_set(self):
        empty = regions.ComplexRootSet(roots=(), residual_bound=0.0)
        assert roots_in_cover(empty, disk_cover(8)) == regions.RootCountRange(min=0, max=0)

    def test_root_set_separation_examples(self):
        assert root_set_separation(numeric_roots(poly(-1, 0, 4)), 0.3) == pytest.approx(1.0, abs=1e-10)
        assert root_set_separation(numeric_roots(poly(1, 0, 1)), 0.1) == math.inf


def _reference_contains(cover, z, margin):
    return any(
        abs(z - complex(float(c), 0.0)) < float(r) - margin
        for c, r in zip(cover.centers, cover.radii)
    )


def _reference_roots_in_cover(roots, cover):
    """The per-root, per-disk loop that ``roots_in_cover`` replaced, at the
    cover margin 1e-9."""
    sure = 0
    ambiguous = 0
    for z in roots.roots:
        if _reference_contains(cover, z, 1e-9):
            sure += 1
        elif _reference_contains(cover, z, -1e-9):
            ambiguous += 1
    return regions.RootCountRange(min=sure, max=sure + ambiguous)
