"""Exact binary rationals m / 2^e and open intervals with dyadic endpoints.

Every subdivision endpoint, disk center and grid point in this package is a
dyadic rational, so integer arithmetic is enough: sums, differences, products
and comparisons never round.  Values are immutable after construction and can
be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Dyadic:
    """A rational of the form num / 2^exp, kept normalized.

    Normalization: ``exp == 0`` or ``num`` is odd; zero is stored as (0, 0).
    The representation is unique, so equality and hashing are field-wise.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        # operator.index takes int, bool and numpy integers, and raises
        # TypeError on floats and strings rather than truncating them
        num = operator.index(num)
        exp = operator.index(exp)
        if exp < 0:
            # m / 2^e with e < 0 is the integer m * 2^|e|
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            # strip trailing zero bits eagerly to keep bitsizes small
            # across deep subdivisions
            shift = min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        return cls(int(obj["num"]), int(obj["exp"]))

    # -- arithmetic (exact; dyadics are closed under +, -, *) ---------------

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __rsub__(self, other: "Dyadic | int") -> "Dyadic":
        return _coerce(other).__sub__(self)

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        # the negation of a normal form is one
        out = object.__new__(Dyadic)
        out.num = -self.num
        out.exp = self.exp
        return out

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        """Exact division by two."""
        return Dyadic(self.num, self.exp + 1)

    # -- order (agrees with the exact rational order) -----------------------

    def _cmp(self, other: "Dyadic | int") -> int:
        other = _coerce(other)
        e = max(self.exp, other.exp)
        diff = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        return (diff > 0) - (diff < 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        other = _coerce(other)
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.num, self.exp))

    # -- predicates and conversions -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        try:
            return self.num / (1 << self.exp)
        except OverflowError:
            return math.inf if self.num > 0 else -math.inf

    def to_json(self) -> dict:
        return {"num": str(self.num), "exp": self.exp}

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


def _coerce(x: "Dyadic | int") -> Dyadic:
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x, 0)
    raise TypeError(f"cannot interpret {x!r} as a dyadic rational")


class DyadicInterval:
    """An open interval (lo, hi) with dyadic endpoints, lo < hi strictly."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic | int, hi: Dyadic | int):
        lo = _coerce(lo)
        hi = _coerce(hi)
        if not lo < hi:
            raise ValueError(f"empty interval: lo={lo} >= hi={hi}")
        self.lo = lo
        self.hi = hi

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        # (lo + hi) / 2 is exactly representable: dyadics are closed
        # under addition and halving
        lo, hi = self.lo, self.hi
        e = max(lo.exp, hi.exp)
        return Dyadic((lo.num << (e - lo.exp)) + (hi.num << (e - hi.exp)), e + 1)

    def split(self) -> "tuple[DyadicInterval, DyadicInterval]":
        """The halves (lo, m) and (m, hi) at the midpoint m, which lies
        strictly between the ends, so neither half is checked again."""
        m = self.midpoint()
        return _interval(self.lo, m), _interval(m, self.hi)

    def __neg__(self) -> "DyadicInterval":
        """The mirror image (-hi, -lo)."""
        return _interval(-self.hi, -self.lo)

    def contains(self, x: Dyadic | int) -> bool:
        x = _coerce(x)
        return self.lo < x < self.hi

    def straddles_zero(self) -> bool:
        """True when 0 lies in the closed hull [lo, hi]."""
        return self.lo.sign() <= 0 <= self.hi.sign()

    def __eq__(self, other):
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json()}

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"

    def __repr__(self) -> str:
        return f"DyadicInterval({self.lo!r}, {self.hi!r})"


def _interval(lo: Dyadic, hi: Dyadic) -> DyadicInterval:
    """The interval (lo, hi) for dyadics known to satisfy lo < hi."""
    out = object.__new__(DyadicInterval)
    out.lo = lo
    out.hi = hi
    return out
