"""Output checks that share no code with rootiso.

Every check reads the serialized output (the JSON the CLI would print)
and decides with exact rational arithmetic; each returns an error
message, or None when the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the polynomial c_0 + c_1 x + ... at x = p/q, exactly.

    Evaluates the homogenized form sum c_i p^i q^(n-i), which has the
    sign of f(p/q) because q > 0.
    """
    p, q = x.numerator, x.denominator
    acc = 0
    qpow = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def _deflate(coeffs, root: Fraction):
    """Exact quotient of the integer polynomial by (q x - p), or None when
    p/q is not a root."""
    p, q = root.numerator, root.denominator
    # synthetic division by (x - p/q) over the rationals, then scale
    quot = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * root + c
        quot.append(acc)
    if quot.pop() != 0:
        return None
    quot.reverse()
    # f = (x - p/q) g = (q x - p) (g / q); g / q has integer coefficients
    out = []
    for c in quot:
        v = c / q
        if v.denominator != 1:
            return None
        out.append(v.numerator)
    return out


def _dyadic(obj) -> Fraction:
    return Fraction(int(obj["num"]), 1 << int(obj["exp"]))


def check_isolation(doc: dict, sqfree, ref) -> str | None:
    """``doc`` is ``IsolationResult.to_json()``; ``sqfree`` a square-free
    polynomial with the input's real roots; ``ref`` the inclusive range
    the real-root count must lie in."""
    intervals = []
    for iv in doc["intervals"]:
        lo, hi = _dyadic(iv["lo"]), _dyadic(iv["hi"])
        if not lo < hi:
            return f"empty interval ({lo}, {hi})"
        if iv["inverted"]:
            if lo <= 0 <= hi:
                return f"inverted interval ({lo}, {hi}) contains 0"
            lo, hi = 1 / hi, 1 / lo
        intervals.append((lo, hi))
    roots = []
    for r in doc["exact_roots"]:
        v = _dyadic(r)
        if r["inverted"]:
            if v == 0:
                return "inverted exact root at 0"
            v = 1 / v
        roots.append(v)
    if len(set(roots)) != len(roots):
        return "repeated exact root"

    h = list(sqfree)
    for v in roots:
        h = _deflate(h, v)
        if h is None:
            return f"exact root {v} does not vanish"
    for lo, hi in intervals:
        if _sign_at(h, lo) * _sign_at(h, hi) >= 0:
            return f"no sign change on ({lo}, {hi})"

    intervals.sort()
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if hi > lo:
            return f"overlapping intervals at {lo}"
    for v in roots:
        if any(lo < v < hi for lo, hi in intervals):
            return f"exact root {v} inside an interval"

    total = len(intervals) + len(roots)
    if not ref[0] <= total <= ref[1]:
        return f"found {total} real roots, reference says {ref[0]}..{ref[1]}"
    return None


# local_condition promises relative error at most 2^-40
_COND_SLACK = 1 - Fraction(1, 1 << 40)


def _exact_condition(coeffs, x: int) -> Fraction | None:
    """||f||_1 / max(|f(x)|, |f'(x)|/d) at an integer point; None for +inf."""
    d = len(coeffs) - 1
    fx = abs(sum(c * x**i for i, c in enumerate(coeffs)))
    fpx = abs(sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i))
    den = max(Fraction(fx), Fraction(fpx, d))
    if den == 0:
        return None
    return Fraction(sum(abs(c) for c in coeffs)) / den


def check_analyze(stdout: str, coeffs) -> str | None:
    """``stdout`` is what ``rootiso analyze`` printed for a successful run."""
    doc = json.loads(stdout)
    d = len(coeffs) - 1
    cond = doc["cond"]
    lower = cond["lower"]
    upper = math.inf if cond["upper"] is None else cond["upper"]
    if not lower <= upper:
        return f"cond lower {lower} > upper {upper}"
    for x in (-1, 0, 1):
        exact = _exact_condition(coeffs, x)
        if exact is None:
            if lower != math.inf:
                return f"cond is infinite at {x} but lower = {lower}"
        elif lower != math.inf and Fraction(lower) < exact * _COND_SLACK:
            return f"cond lower {lower} below cond({x}) = {float(exact)}"
    if doc["rho_count"]["max"] > d:
        return f"rho_count.max {doc['rho_count']['max']} > d = {d}"
    return None


def check_steps(summary: dict) -> str | None:
    for d, entry in summary["extras"]["per_d"].items():
        if not entry["depth_bound_ok"]:
            return f"depth bound violated at d = {d}"
    return None
