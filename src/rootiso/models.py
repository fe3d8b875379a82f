"""Random integer-polynomial ensembles with deterministic sampling.

Five coefficient distributions are supported: uniform over
[-2^tau, 2^tau], uniform restricted to a support set, fixed coefficient
signs, exact coefficient bitsize, and a smoothed ensemble (a fixed
polynomial plus sigma times a random one).  Each carries its bitsize
bound tau and a uniformity value u = ln(w (1 + 2^(tau+1))), where w is
the largest point mass among the coefficients of 1, X, X^(d-1), X^d;
u = 0 is the plain uniform ensemble.

Sampling is counter-based: every coefficient is a pure function of
(seed, trial index, coefficient position), so trials can be drawn in any
order, on any number of workers, with bit-identical results.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .polynomial import IntPolynomial, int_bitsize


@dataclass(frozen=True)
class RandomModel:
    """A coefficient distribution for degree-d integer polynomials.

    Use the factory functions below; they validate the per-kind fields.
    """

    kind: str  # uniform | support | signs | exactbits | smoothed
    degree: int
    bitsize: int
    support: frozenset | None = None
    signs: tuple | None = None
    base: "RandomModel | None" = None
    shift: IntPolynomial | None = None
    sigma: int = 0

    # -- sampling -----------------------------------------------------------

    def sample(self, seed: int, index: int) -> IntPolynomial:
        """Draw one polynomial; a pure function of (seed, index).

        Each coefficient comes from its own bit source keyed by (seed,
        index, position): the SHA-256 digests of b"seed:index:position:n"
        for n = 0, 1, ..., each read as a big-endian 256-bit integer and
        put below the bits still unread, which are then read from the
        least significant end.  A uniform coefficient takes tau + 2 bits
        until they fall below 2^(tau+1) + 1 (rejection, so no modulo
        bias), a fixed-sign one tau bits, and an exact-bitsize one a sign
        bit and then tau - 1 bits.
        """
        if self.kind == "smoothed":
            noise = self.base.sample(seed, index)
            return self.shift + noise.scale(self.sigma)
        kind, tau = self.kind, self.bitsize
        if kind in ("uniform", "support"):
            draws = ((tau + 2, (1 << (tau + 1)) + 1),)  # (bits, accepted if below)
        elif kind == "signs":
            draws = ((tau, 1 << tau),)
        elif kind == "exactbits":
            draws = ((1, 2), (tau - 1, 1 << (tau - 1)))
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")
        head = f"{seed}:{index}:".encode()
        coeffs = []
        for position in range(self.degree + 1):
            if kind == "support" and position not in self.support:
                coeffs.append(0)
                continue
            prefix = head + b"%d:" % position
            pool = pool_bits = blocks = value = 0
            for k, bound in draws:
                v = bound
                while v >= bound:
                    while pool_bits < k:
                        block = hashlib.sha256(prefix + b"%d" % blocks).digest()
                        pool = (pool << 256) | int.from_bytes(block, "big")
                        blocks += 1
                        pool_bits += 256
                    v = pool & ((1 << k) - 1)
                    pool >>= k
                    pool_bits -= k
                value = (value << k) | v
            if kind == "signs":
                coeffs.append(self.signs[position] * (value + 1))
            elif kind == "exactbits":
                # the sign bit is the top bit of value
                half = 1 << (tau - 1)
                coeffs.append(value if value >= half else -(half + value))
            else:
                coeffs.append(value - (1 << tau))
        return IntPolynomial(coeffs)

    # -- ensemble parameters ---------------------------------------------------

    def tau_bound(self) -> int:
        """Smallest tau with every |coefficient| <= 2^tau, surely."""
        if self.kind == "smoothed":
            tau_shift = self.shift.bitsize_tau() if not self.shift.is_zero else 0
            tau_sigma = int_bitsize(self.sigma)
            return max(tau_shift, self.base.tau_bound() + tau_sigma) + 1
        return self.bitsize

    def uniformity(self) -> float:
        """u = ln(w (1 + 2^(tau+1))); 0 exactly for the uniform ensembles."""
        tau = self.bitsize
        if self.kind in ("uniform", "support"):
            return 0.0
        if self.kind in ("signs", "exactbits"):
            # w = 2^-tau over 2^tau equiprobable values, so
            # u = ln((1 + 2^(tau+1)) / 2^tau) = ln(2 + 2^-tau) <= ln 3
            return math.log(2.0 + 2.0**-tau)
        if self.kind == "smoothed":
            tau_shift = self.shift.bitsize_tau() if not self.shift.is_zero else 0
            tau_sigma = int_bitsize(self.sigma)
            return 1.0 + max(tau_shift - self.base.tau_bound(), tau_sigma) + self.base.uniformity()
        raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def uniformity_is_bound(self) -> bool:
        """True when ``uniformity`` reports an upper bound, not the exact
        value (the smoothed ensemble's point masses depend on the base)."""
        return self.kind == "smoothed"

    def describe(self) -> str:
        if self.kind == "support":
            sup = ",".join(str(i) for i in sorted(self.support))
            return f"support(d={self.degree},tau={self.bitsize},A={{{sup}}})"
        if self.kind == "signs":
            pattern = "".join("+" if s > 0 else "-" for s in self.signs)
            return f"signs(d={self.degree},tau={self.bitsize},s={pattern})"
        if self.kind == "smoothed":
            return f"smoothed(sigma={self.sigma},base={self.base.describe()})"
        return f"{self.kind}(d={self.degree},tau={self.bitsize})"


def uniform_model(degree: int, bitsize: int) -> RandomModel:
    """Coefficients independent and uniform over [-2^tau, 2^tau]."""
    _check_degree_bitsize(degree, bitsize)
    return RandomModel(kind="uniform", degree=degree, bitsize=bitsize)


def support_model(degree: int, bitsize: int, support) -> RandomModel:
    """Uniform coefficients on the support set, zero elsewhere.

    The support must contain 0, 1, d-1 and d (the positions whose
    distributions control the ensemble's uniformity)."""
    _check_degree_bitsize(degree, bitsize)
    sup = frozenset(int(i) for i in support)
    required = {0, 1, degree - 1, degree}
    if not required <= sup:
        raise ValueError(f"support must contain {sorted(required)}")
    if not all(0 <= i <= degree for i in sup):
        raise ValueError("support indices must lie in [0, degree]")
    return RandomModel(kind="support", degree=degree, bitsize=bitsize, support=sup)


def signs_model(degree: int, bitsize: int, signs) -> RandomModel:
    """Coefficient i uniform over s_i * {1, ..., 2^tau}; never zero."""
    _check_degree_bitsize(degree, bitsize)
    sv = tuple(int(s) for s in signs)
    if len(sv) != degree + 1 or any(s not in (-1, 1) for s in sv):
        raise ValueError("signs must be a vector of +-1 of length degree + 1")
    return RandomModel(kind="signs", degree=degree, bitsize=bitsize, signs=sv)


def exact_bitsize_model(degree: int, bitsize: int) -> RandomModel:
    """Coefficients uniform over the integers of exact bitsize tau,
    i.e. [-2^tau + 1, -2^(tau-1)] union [2^(tau-1), 2^tau - 1]."""
    _check_degree_bitsize(degree, bitsize)
    return RandomModel(kind="exactbits", degree=degree, bitsize=bitsize)


def smoothed_model(shift: IntPolynomial, sigma: int, base: RandomModel) -> RandomModel:
    """The fixed polynomial plus sigma times a draw from the base model."""
    if sigma == 0:
        raise ValueError("sigma must be a nonzero integer")
    if shift.degree > base.degree:
        raise ValueError("fixed polynomial degree exceeds the base model degree")
    return RandomModel(
        kind="smoothed",
        degree=base.degree,
        bitsize=base.bitsize,
        base=base,
        shift=shift,
        sigma=int(sigma),
    )


def _check_degree_bitsize(degree: int, bitsize: int) -> None:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if bitsize < 1:
        raise ValueError("bitsize must be >= 1")
