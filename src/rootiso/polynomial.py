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
coefficients.  The square-free certificate runs its Euclid loop modulo
2^31 - 1 in numpy int64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .dyadic import Dyadic, DyadicInterval


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def int_bitsize(n: int) -> int:
    """Least b with |n| <= 2^b; 0 for n = 0."""
    return (abs(n) - 1).bit_length() if n else 0


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of X^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def scale(self, k: int) -> "IntPolynomial":
        if k == 0:
            return IntPolynomial([])
        return IntPolynomial([k * c for c in self.coeffs])

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
        return IntPolynomial(self.coeffs[::-1])

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
        (exactly) by c^j.  The shift by one runs in Pascal rounds over the
        reversed coefficients: each round replaces the remaining list by
        its prefix sums, and the last sum is the next low coefficient.
        These are the additions Ruffini-Horner does, with the inner loop
        inside ``accumulate``.  For c = 1 the scaling is the identity.
        """
        if self.is_zero or c == 0:
            return self
        r = list(self.coeffs)
        if c != 1:
            powers = list(accumulate([c] * (len(r) - 1), mul, initial=1))
            r = [f * q for f, q in zip(r, powers)]
        r.reverse()
        shifted = []
        while r:
            r = list(accumulate(r))
            shifted.append(r.pop())
        if c != 1:
            shifted = [h // q for h, q in zip(shifted, powers)]
        return IntPolynomial(shifted)

    def strip_power_of_two(self) -> "IntPolynomial":
        """Divide out the largest common power of two (positive factor)."""
        if self.is_zero:
            return self
        shift = min((c & -c).bit_length() - 1 for c in self.coeffs if c)
        if shift == 0:
            return self
        return IntPolynomial([c >> shift for c in self.coeffs])

    # -- sign variations ----------------------------------------------------------

    def sign_variations(self) -> int:
        """Number of sign changes in the coefficient list, zeros skipped.

        Bounds the number of positive real roots from above and matches
        their parity (Descartes' rule of signs).
        """
        count = 0
        prev = 0
        for c in self.coeffs:
            if c == 0:
                continue
            s = 1 if c > 0 else -1
            if prev and s != prev:
                count += 1
            prev = s
        return count

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
    those of f restricted to the interval.
    """
    if f.is_zero:
        return f
    a = interval.lo
    w = interval.width()
    level = max(a.exp, w.exp)
    an = a.num << (level - a.exp)
    wn = w.num << (level - w.exp)
    d = f.degree
    # Horner in the linear form (an + wn X), rescaling each constant term
    acc = [f.coeffs[d]]
    for i in range(d - 1, -1, -1):
        nxt = [0] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j] += c * an
            nxt[j + 1] += c * wn
        nxt[0] += f.coeffs[i] << (level * (d - i))
        acc = nxt
    return IntPolynomial(acc)


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

# Single-prime certificate: if gcd(f mod p, f' mod p) is constant then
# gcd(f, f') is constant over Q.  Lets random inputs skip the integer PRS.
# Below 2^31, so a product of two residues fits int64 twice over.
_CHECK_PRIME = (1 << 31) - 1


def square_free_part(f: IntPolynomial) -> IntPolynomial:
    """Primitive f / gcd(f, f'), sign-normalized to a positive leading
    coefficient.  Same real (and complex) root set as f, all roots simple.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return IntPolynomial([1])
    fp = f.primitive_part()
    common = repeated_root_part(fp)
    g = fp if common.degree == 0 else _exact_divide(fp, common)
    if g.leading_coefficient < 0:
        g = g.scale(-1)
    return g.primitive_part()


def repeated_root_part(f: IntPolynomial) -> IntPolynomial:
    """gcd(f, f') up to content: vanishes exactly at the repeated roots of f."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return IntPolynomial([1])
    fp = f.primitive_part()
    if _coprime_with_derivative_mod_p(fp):
        return IntPolynomial([1])
    return _primitive_gcd(fp, fp.derivative())


def _coprime_with_derivative_mod_p(f: IntPolynomial) -> bool:
    """True when the Euclid sequence of f and f' modulo _CHECK_PRIME ends
    in a nonzero constant; False when it cannot certify."""
    p = _CHECK_PRIME
    a = [c % p for c in f.coeffs]
    b = [(i * c) % p for i, c in enumerate(f.coeffs)][1:]
    if not a or a[-1] == 0 or not b or b[-1] == 0:
        return False  # leading coefficient collapsed mod p; cannot certify
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    # residues lie in [0, p), so each q * b_i is below 2^62 and the two
    # subtractions of one step stay above -2^63
    while len(b) > 1:
        inv = pow(int(b[-1]), -1, p)
        if len(a) == len(b) + 1:
            # usual case: quotient q1 X + q0, both subtractions in one pass
            q1 = int(a[-1]) * inv % p
            q0 = (int(a[-2]) - q1 * int(b[-2])) * inv % p
            r = a[:-2] - q0 * b[:-1]
            r[1:] -= q1 * b[:-2]
            r %= p
        else:
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
                return False
            r = r[: nonzero[-1] + 1]
        a, b = b, r
    return True


def _pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """prem(a, b): remainder of lc(b)^(da-db+1) * a divided by b."""
    da, db = a.degree, b.degree
    if da < db:
        return a
    lc = b.leading_coefficient
    r = list(a.coeffs)
    for k in range(da - db, -1, -1):
        # r <- lc * r - r[k+db] * X^k * b, which zeroes coefficient k + db
        top = r[k + db]
        r = [c * lc for c in r]
        for i in range(db + 1):
            r[k + i] -= top * b.coeffs[i]
    return IntPolynomial(r[:db])


def _primitive_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd of the primitive parts via the primitive remainder sequence."""
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        if b.degree == 0:
            return IntPolynomial([1])
        r = _pseudo_remainder(a, b)
        a, b = b, r.primitive_part()
    if a.leading_coefficient < 0:
        a = a.scale(-1)
    return a


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
