"""Dense integer polynomials with exact evaluation and subdivision transforms.

A polynomial is a tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of X^i, trailing zeros trimmed.  All
operations are pure functions on immutable values.

The three coefficient transforms used by the subdivision solver are

* ``reciprocal``:   X^d * f(1/X)         (coefficient reversal),
* ``homothety``:    2^(dk) * f(X / 2^k)  (rescaling roots by 2^k),
* ``taylor_shift``: f(X + c)             (translating roots by -c),

and sign-variation counts on an interval are read off the image of f under
the Moebius map that carries (0, oo) onto that interval.

The two O(d^2) kernels keep their per-coefficient loops in C.
``taylor_shift`` scales by powers of c, shifts by one in rounds of
Pascal's triangle (each round one ``itertools.accumulate``), and divides
the powers of c back out.  It does the big-integer additions of
Ruffini-Horner, with no padding.  No Kronecker-substitution or
divide-and-conquer shift is offered: both rest on big-integer products,
and CPython multiplies with Karatsuba, not FFT.  Measured against the
Pascal rounds, Kronecker wins only at low degree with narrow coefficients
(d <= 64, 32 bits), and both lose from d = 256 on and with wide
coefficients.  ``unit_rescale`` runs its three transforms on plain int
lists (``_unit_image``) and builds one polynomial, at the end.

The square-free part divides out gcd(f, f').  An f = x^j h(x^2), as
every even or odd f is, takes it from gcd(h, h'), at half the degree.
Most square-free inputs are certified by one integer gcd, of f and f' at
the point 2^(r + 8) + 1 beyond their roots, all below 2^r, and run no
Euclid.  Both values come from one pass, Horner on runs of 64
coefficients combined pairwise, with no derivative built.  The others,
and every input with a repeated root, run the small-primes modular gcd,
each image a Euclid loop in numpy int64 modulo a prime below 2^31.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import floordiv, lshift, mul, ne

import numpy as np

from .dyadic import Dyadic, DyadicInterval


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def int_bitsize(n: int) -> int:
    """Least b with |n| <= 2^b; 0 for n = 0."""
    return (abs(n) - 1).bit_length() if n else 0


def _trimmed(cs: tuple) -> tuple:
    """The coefficient tuple cs without its trailing zeros."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs if n == len(cs) else cs[:n]


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of X^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # operator.index takes int, bool and numpy integers, and raises
        # TypeError on floats and strings rather than truncating them
        self.coeffs = _trimmed(tuple(map(operator.index, coeffs)))

    @classmethod
    def _of_ints(cls, cs: tuple) -> "IntPolynomial":
        """The polynomial of a tuple of Python ints, trailing zeros trimmed
        but not re-validated: for coefficients this module computed."""
        out = object.__new__(cls)
        out.coeffs = _trimmed(cs)
        return out

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    # -- norms ----------------------------------------------------------------

    def one_norm(self) -> int:
        """Sum of coefficient magnitudes."""
        return sum(abs(c) for c in self.coeffs)

    def bitsize_tau(self) -> int:
        """Maximum coefficient bitsize.

        The bitsize of n is the least b with |n| <= 2^b (so 2^tau still
        has bitsize tau, matching the coefficient windows of the random
        ensembles); bits(0) = 0.
        """
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial")
        return max(int_bitsize(c) for c in self.coeffs)

    # -- evaluation -------------------------------------------------------------

    def evaluate_dyadic(self, x: Dyadic) -> Dyadic:
        """Exact value f(x) for a dyadic x.

        Horner over integers: f(n / 2^e) = N / 2^(e d) with
        N = sum_i f_i n^i 2^(e (d - i)), so no rounding ever occurs.
        """
        if self.is_zero:
            return Dyadic(0)
        d = self.degree
        n, e = x.num, x.exp
        acc = self.coeffs[d]
        for i in range(d - 1, -1, -1):
            acc = acc * n + (self.coeffs[i] << (e * (d - i)))
        return Dyadic(acc, e * d)

    def evaluate_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- calculus and ring operations --------------------------------------------

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial._of_ints(tuple(map(operator.index(k).__mul__, self.coeffs)))

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content, keeping the leading sign."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self.coeffs])

    # -- subdivision transforms -----------------------------------------------

    def reciprocal(self) -> "IntPolynomial":
        """X^d * f(1/X): the reversed coefficient vector, trimmed.

        The degree drops by the multiplicity of 0 as a root of f; on
        polynomials with f(0) != 0 this is an involution.
        """
        return IntPolynomial._of_ints(self.coeffs[::-1])

    def homothety(self, k: int) -> "IntPolynomial":
        """2^(dk) * f(X / 2^k), with denominators cleared for negative k.

        The result has integer coefficients and the roots of f scaled by
        2^k.  For k >= 0 coefficient i becomes 2^(k (d - i)) f_i.  Negative
        k composes reversal, positive homothety and reversal again; the
        reversal here is taken at fixed length d + 1 (no trimming), which
        keeps the identity valid when f(0) = 0 and amounts to coefficient
        i picking up the factor 2^(|k| i).
        """
        if self.is_zero or k == 0:
            return self
        d = self.degree
        if k >= 0:
            return IntPolynomial([c << (k * (d - i)) for i, c in enumerate(self.coeffs)])
        return IntPolynomial([c << (-k * i) for i, c in enumerate(self.coeffs)])

    def taylor_shift(self, c: int) -> "IntPolynomial":
        """Exact coefficients of f(X + c); inverse of the shift by -c.

        With u_i = f_i c^i, f(X + c) = u((X + c) / c) = u(X / c + 1), so
        coefficient j of the result is coefficient j of u(X + 1) divided
        (exactly) by c^j.  The shift by one is ``pascal_rounds`` over the
        reversed coefficients: the additions Ruffini-Horner does, with the
        inner loop inside ``accumulate``.
        """
        if self.is_zero or c == 0:
            return self
        powers = list(accumulate([c] * self.degree, mul, initial=1))
        u = [f * q for f, q in zip(self.coeffs, powers)]
        shifted = pascal_rounds(u[::-1])
        return IntPolynomial([h // q for h, q in zip(shifted, powers)])

    # -- sign variations ----------------------------------------------------------

    def sign_variations(self) -> int:
        """Number of sign changes in the coefficient list, zeros skipped.

        Bounds the number of positive real roots from above and matches
        their parity (Descartes' rule of signs).
        """
        return sign_variations(self.coeffs)

    # -- text and JSON formats -------------------------------------------------------

    def to_text(self) -> str:
        """Whitespace-separated decimal coefficients c_0 c_1 ... c_d."""
        if self.is_zero:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, line: str) -> "IntPolynomial":
        parts = line.split()
        if not parts:
            raise ValueError("empty coefficient list")
        try:
            return cls(int(p) for p in parts)
        except ValueError:
            bad = next(p for p in parts if not _is_int_token(p))
            raise ValueError(f"invalid coefficient {bad!r}") from None

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntPolynomial":
        return cls(int(c) for c in obj["coeffs"])


def sign_variations(values) -> int:
    """Number of sign changes in a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def pascal_rounds(values: list) -> list:
    """Coefficients, low first, of sum_i values[i] (X + 1)^(n - 1 - i).

    n = len(values) rounds of Pascal's triangle: each round replaces the
    list by its prefix sums, and the last sum is the next coefficient.
    Fed the reversed coefficients of f it yields f(X + 1), fed those of f
    itself the Moebius image (X + 1)^d f(1 / (X + 1)); zeros are kept, so
    the result has length n.
    """
    out = []
    while values:
        values = list(accumulate(values))
        out.append(values.pop())
    return out


def _is_int_token(tok: str) -> bool:
    t = tok[1:] if tok[:1] in "+-" else tok
    return t.isdigit()


# ---------------------------------------------------------------------------
# Sign variations on an interval
# ---------------------------------------------------------------------------


def unit_rescale(f: IntPolynomial, interval: DyadicInterval) -> IntPolynomial:
    """Integer image of f on ``interval`` rescaled to [0, 1].

    Returns 2^(L d) * f(a + w X) where a, w = lo, hi - lo share the
    denominator 2^L.  The scaling factor is a positive power of two, so
    signs, sign variations and root locations (up to the affine map) are
    those of f restricted to the interval.  With a = an / 2^L and
    w = wn / 2^L it is h(an + wn X) for h = 2^(L d) f(X / 2^L): the
    homothety, the shift by an, and coefficient i times wn^i
    (``_unit_image``).
    """
    return IntPolynomial._of_ints(tuple(_unit_image(f.coeffs, interval)))


def _unit_image(coeffs, interval: DyadicInterval) -> list[int]:
    """The coefficients of ``unit_rescale`` from those of f, on plain int
    lists: the homothety's shifts, the Taylor shift by an (scale by the
    powers of an, Pascal rounds, exact division, as ``taylor_shift``) and
    the powers of wn, shifts when wn is a power of two.  No polynomial is
    built or validated in between, and none needs trimming: the leading
    coefficient, f_d wn^d, is not zero.
    """
    a = interval.lo
    w = interval.width()
    level = max(a.exp, w.exp)
    an = a.num << (level - a.exp)
    wn = w.num << (level - w.exp)
    d = len(coeffs) - 1
    h = list(map(lshift, coeffs, range(level * d, -1, -level))) if level else list(coeffs)
    if an:
        powers = list(accumulate(repeat(an, d), mul, initial=1))
        h = list(map(floordiv, pascal_rounds(list(map(mul, h, powers))[::-1]), powers))
    if wn & (wn - 1):
        return list(map(mul, h, accumulate(repeat(wn, d), mul, initial=1)))
    step = wn.bit_length() - 1
    return list(map(lshift, h, range(0, step * d + 1, step))) if step else h


def unit_variations(g: IntPolynomial) -> int:
    """Sign variations of the Moebius image of g mapped from (0, 1).

    For g the rescaled image of f on an interval J, this equals
    var((X + 1)^d f((aX + b) / (X + 1))), the Descartes count for J.
    """
    return g.reciprocal().taylor_shift(1).sign_variations()


def mobius_test_poly(f: IntPolynomial, interval: DyadicInterval) -> IntPolynomial:
    """The transformed polynomial whose variation count is var(f, J).

    Equals 2^(L d) (X + 1)^d f((aX + b)/(X + 1)) exactly, with the positive
    two-power denominator-clearing factor that cannot change signs.
    """
    return unit_rescale(f, interval).reciprocal().taylor_shift(1)


def variations_in_interval(f: IntPolynomial, interval: DyadicInterval) -> int:
    """Descartes count for the open interval: an upper bound on the number
    of roots of f inside it, matching their parity."""
    return mobius_test_poly(f, interval).sign_variations()


# ---------------------------------------------------------------------------
# Square-free part
# ---------------------------------------------------------------------------

# The first modulus of the modular gcd, the largest prime below 2^31, so
# that a product of two residues fits int64 twice over.  A square-free
# input that the pre-test declines has a constant image here, unless the
# prime is unlucky, and that one Euclid run certifies it.
_CHECK_PRIME = (1 << 31) - 1


def square_free_part(f: IntPolynomial) -> IntPolynomial:
    """Primitive f / gcd(f, f'), sign-normalized to a positive leading
    coefficient.  Same real (and complex) root set as f, all roots simple.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return IntPolynomial([1])
    # f / gcd(f, f') of a primitive f is primitive (Gauss's lemma)
    return _gcd_with_derivative(f.primitive_part())[1]


def repeated_root_part(f: IntPolynomial) -> IntPolynomial:
    """gcd(f, f') up to content: vanishes exactly at the repeated roots of f.

    ``_coprime_with_derivative`` certifies most square-free inputs with
    one integer gcd; the others run the small-primes modular gcd (Brown
    1971).  The images of the gcd modulo descending primes from
    _CHECK_PRIME, each scaled by gcd(lc f, lc f'), are combined by CRT; a
    prime whose image has a degree above the lowest seen is unlucky and
    skipped, and a lower degree restarts the combination.  The primitive
    part H of the symmetric representative is returned once it divides f
    and f' exactly: H then divides the gcd, and no image has a degree
    below the gcd's, so H is the gcd.  The division is tried only once
    every coefficient of the representative is at most 2^-16 times the
    modulus in magnitude (``_HEADROOM``).  A representative that is still wrong is
    spread over the whole range and lands there with a chance of about
    2^-16 per coefficient, so it rarely costs a failed division; the right
    one lands there within one prime of the first that holds it.  A
    constant image ends the search at once.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return IntPolynomial([1])
    return _gcd_with_derivative(f.primitive_part())[0]


def _gcd_with_derivative(fp: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """gcd(f, f') and f / gcd(f, f'), each with a positive leading
    coefficient, for a primitive f of degree at least 1 (see
    ``repeated_root_part``).

    A root at 0 is split off first.  Write f = x^j q with j >= 1 and
    q(0) != 0.  x does not divide q, so the root 0 of f has multiplicity
    j, and gcd(f, f') = x^(j - 1) gcd(q, q'), f / gcd(f, f') =
    x q / gcd(q, q'): the gcd runs on q, whose certificate
    (``_coprime_with_derivative``) usually answers at once.

    An even f = h(x^2) with h(0) != 0 is reduced to h, of half the
    degree: gcd(f, f') = gcd(h(x^2), 2x h'(x^2)) = gcd(h(x^2), h'(x^2)),
    and that is gcd(h, h')(x^2): it divides both, and a Bezout identity
    for gcd(h, h') taken at x^2 shows that it is divided by every common
    divisor.  So an odd f, x h(x^2), runs at half its degree too.  q and h
    are primitive, as f is, with f's leading coefficient, so both parts
    stay primitive and keep their signs.
    """
    coeffs = fp.coeffs
    j = 0
    while not coeffs[j]:
        j += 1
    if j:
        if len(coeffs) - j == 1:  # f = +-x^j
            common, part = (1,), (1,)
        else:
            common, part = (p.coeffs for p in _gcd_with_derivative(IntPolynomial._of_ints(coeffs[j:])))
        return IntPolynomial._of_ints((0,) * (j - 1) + common), IntPolynomial._of_ints((0, *part))
    if any(islice(coeffs, 1, None, 2)):
        return _gcd_at_full_degree(fp)
    common, part = (p.coeffs for p in _gcd_with_derivative(IntPolynomial._of_ints(coeffs[::2])))
    return _of_square(common), _of_square(part)


def _of_square(coeffs: tuple) -> IntPolynomial:
    """p(x^2), for p with the coefficients ``coeffs``."""
    out = [0] * (2 * len(coeffs) - 1)
    out[::2] = coeffs
    return IntPolynomial._of_ints(tuple(out))


def _gcd_at_full_degree(fp: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """``_gcd_with_derivative`` without the reduction to half degree."""
    if fp.leading_coefficient < 0:
        fp = fp.scale(-1)
    if _coprime_with_derivative(fp):
        return IntPolynomial([1]), fp
    gamma = abs(fp.leading_coefficient)  # gcd(lc f, lc f') = gcd(lc f, d lc f)
    lowest = fp.degree
    for p in _descending_primes():
        image = _gcd_with_derivative_mod_p(fp, p)
        if image is None or len(image) > lowest + 1:
            continue
        if len(image) == 1:
            return IntPolynomial([1]), fp
        image = [gamma * c % p for c in image]
        if len(image) <= lowest:
            lowest, residues, modulus = len(image) - 1, image, p
        else:
            shift = pow(modulus, -1, p)
            residues = [r + modulus * ((c - r) * shift % p) for r, c in zip(residues, image)]
            modulus *= p
        half = modulus // 2
        representative = [r - modulus if r > half else r for r in residues]
        if max(map(abs, representative)) > modulus >> _HEADROOM:
            continue
        h = IntPolynomial(representative).primitive_part()
        try:
            _exact_divide(fp.derivative(), h)
            cofactor = _exact_divide(fp, h)
        except ArithmeticError:
            continue
        return (h, cofactor) if h.leading_coefficient > 0 else (h.scale(-1), cofactor.scale(-1))


# The bits by which the modular gcd's representative must fall below its
# modulus before a trial division (see ``repeated_root_part``).
_HEADROOM = 16

# The margin s of ``_coprime_with_derivative``: the evaluation point is
# 2^(r + s) + 1 for roots below 2^r.  Its proof needs s >= 1; a wider
# margin leaves room for the chance common factors of f(xi) and f'(xi).
_POINT_MARGIN = 8

# ``_coprime_with_derivative`` declines inputs with roots beyond 2^r for
# r above this cap, so the integers it takes the gcd of have at most
# about (16 + s) d + tau bits.
_ROOT_EXPONENT_CAP = 16


def _coprime_with_derivative(fp: IntPolynomial) -> bool:
    """True only if the primitive f has no repeated root; False is no answer.

    A heuristic gcd (Char, Geddes & Gonnet 1989) at one point beyond the
    roots.  By Fujiwara's bound every root has modulus below 2^r (see
    ``_root_exponent``).  With k = r + s for s = ``_POINT_MARGIN`` and
    xi = 2^k + 1, take gamma = gcd(f(xi), f'(xi)) and accept when
    gamma <= 2^(k - 1).

    Proof.  xi exceeds every root in modulus, so f(xi) != 0 and
    gamma >= 1.  Suppose f has a repeated root alpha, and let m be the
    primitive minimal polynomial of alpha over Z.  m divides f and f' in
    Q[x], hence in Z[x] by Gauss's lemma, so the integer m(xi) divides
    f(xi) and f'(xi), and so divides gamma.  Every root beta of m is a
    root of f, so |xi - beta| > 2^k + 1 - 2^r >= 2^(k - 1) for s >= 1,
    and |m(xi)| >= |lc m| prod |xi - beta| > 2^(k - 1).  Hence
    gamma > 2^(k - 1), and an accepted f has no repeated root.  The proof
    holds for every s >= 1.  s = 8 keeps f(xi) and f'(xi) near
    (r + 8) d + tau bits and still certifies every uniform sample of
    ``scripts/bench_sqfree.py`` (s = 6 declines one at d = 16).

    xi is odd because xi = 2^k leaves a power of two in gamma whenever the
    low coefficients of f and f' share one, which scaled Chebyshev
    polynomials do.  Inputs with r > ``_ROOT_EXPONENT_CAP`` are declined,
    keeping the gcd's operands near (r + s) d + tau bits.

    ``_gcd_with_derivative`` splits a root at 0 off before it comes here,
    but the proof does not need f(0) != 0: x is then a factor m with
    |m(xi)| = xi.
    """
    coeffs = fp.coeffs
    r = _root_exponent(coeffs)
    if r > _ROOT_EXPONENT_CAP:
        return False
    k = r + _POINT_MARGIN
    xi = (1 << k) + 1
    gamma = math.gcd(*_value_and_slope(coeffs, xi))
    return gamma <= 1 << (k - 1)


def _root_exponent(coeffs) -> int:
    """An r >= 1 with every root of the polynomial below 2^r in modulus.

    Fujiwara (1916): |z| <= 2 max_i |f_(d-i) / f_d|^(1/i), here without
    halving the last ratio.  Each ratio is below 2^(bl f_(d-i) - bl f_d + 1)
    for bl the bit length, so
    r = 1 + max(0, max_i ceil((bl f_(d-i) - bl f_d + 1) / i)); the terms
    that are not positive, zero coefficients among them, are skipped.

    With w the largest excess bl f_(d-i) - bl f_d + 1, every term at
    i >= w is at most ceil(w / i) = 1, and the largest excess gives a term
    of at least 1 when w > 0.  So only the terms i < w are divided out.
    """
    lengths = list(map(int.bit_length, coeffs))
    top = lengths.pop() - 1
    w = max(lengths, default=top) - top
    if w <= 0:
        return 1
    return 1 + max([1, *(-((top - b) // i) for i, b in enumerate(lengths[-1:-w:-1], 1))])


# The run length of ``_value_and_slope``'s Horner passes.
_RUN = 64


def _value_and_slope(coeffs, x: int) -> tuple[int, int]:
    """f(x) and f'(x) for f with the coefficients ``coeffs``, in one pass.

    Horner over each run of ``_RUN`` coefficients carries (value, slope).
    Neighbouring blocks, each left one m coefficients long, then combine
    pairwise (Estrin): with y = x^(m - 1), the block L + x^m R has value
    V_L + x y V_R and slope S_L + x y S_R + m y V_R = S_L + y (x S_R +
    m V_R), two wide products, and y for 2m is x y^2, one squaring.  Wide
    operands meet in a few large products, not in d products of one wide
    and one narrow operand.
    """
    blocks = []
    for start in range(0, len(coeffs), _RUN):
        value = slope = 0
        for c in reversed(coeffs[start : start + _RUN]):
            slope = slope * x + value
            value = value * x + c
        blocks.append((value, slope))
    m, y = _RUN, x ** (_RUN - 1)
    while len(blocks) > 1:
        power = x * y
        paired = [
            (vl + power * vr, sl + y * (x * sr + m * vr))
            for (vl, sl), (vr, sr) in zip(blocks[::2], blocks[1::2])
        ]
        if len(blocks) & 1:
            paired.append(blocks[-1])
        blocks = paired
        if len(blocks) > 1:
            m, y = 2 * m, x * (y * y)
    return blocks[0]


def _gcd_with_derivative_mod_p(f: IntPolynomial, p: int) -> list | None:
    """Residues, low first, of the monic gcd of f and f' modulo a prime
    p < 2^31; None when the leading coefficient of f or f' vanishes mod p."""
    a = [c % p for c in f.coeffs]
    b = [(i * c) % p for i, c in enumerate(f.coeffs)][1:]
    if not a or a[-1] == 0 or not b or b[-1] == 0:
        return None
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    # residues lie in [0, p), so each q * b_i is below 2^62 and a
    # subtraction stays above -2^63
    while len(b) > 1:
        inv = pow(int(b[-1]), -1, p)
        r = a.copy()
        while len(r) >= len(b):
            top = int(r[-1])
            if top:
                window = r[-len(b) :]
                window -= (top * inv % p) * b
                window %= p
            r = r[:-1]
        if not r[-1]:
            nonzero = np.flatnonzero(r)
            if not len(nonzero):
                return (b * inv % p).tolist()
            r = r[: nonzero[-1] + 1]
        a, b = b, r
    return [1]


def _descending_primes():
    """The primes below 2^31, largest first, down to 5."""
    p = _CHECK_PRIME
    while p > 3:
        yield p
        p = _next_prime_below(p)


@functools.cache
def _next_prime_below(n: int) -> int:
    """The largest prime below an odd n > 3."""
    n -= 2
    while not _is_prime(n):
        n -= 2
    return n


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7: exact below 3,215,031,751."""
    if n < 11 or not n & 1:
        return n in (2, 3, 5, 7)
    t = (n - 1) >> 1
    s = 1
    while not t & 1:
        t >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_divide(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Quotient f / g when the division is exact over the integers."""
    if g.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    r = list(f.coeffs)
    dg = g.degree
    lc = g.leading_coefficient
    q = [0] * (len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        head = r[k + dg]
        if head % lc:
            raise ArithmeticError("inexact polynomial division")
        q[k] = head // lc
        for i in range(dg + 1):
            r[k + i] -= q[k] * g.coeffs[i]
    if any(r[:dg]):
        raise ArithmeticError("inexact polynomial division")
    return IntPolynomial(q)
