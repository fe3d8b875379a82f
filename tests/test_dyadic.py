import random

import numpy as np
import pytest

from rootiso.dyadic import Dyadic, DyadicInterval


def test_addition_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)  # 1/2 + 1/4 = 3/4
    assert Dyadic(3, 3) * Dyadic(0) == Dyadic(0)
    assert (Dyadic(3, 3) * Dyadic(0)).exp == 0
    assert Dyadic(5, 3) < Dyadic(3, 2)  # 5/8 < 3/4


def test_normalization_unique():
    rng = random.Random(1)
    for _ in range(2000):
        m = rng.randint(-1 << 40, 1 << 40)
        e = rng.randint(0, 30)
        k = rng.randint(0, 20)
        assert Dyadic(m << k, e + k) == Dyadic(m, e)


def test_normalized_invariant():
    rng = random.Random(2)
    for _ in range(2000):
        d = Dyadic(rng.randint(-1 << 30, 1 << 30), rng.randint(0, 20))
        for x in (d, -d):
            assert x.exp == 0 or x.num % 2 == 1
            if x.num == 0:
                assert x.exp == 0
        assert -d == Dyadic(-d.num, d.exp)


def test_negative_exponent_is_integer():
    assert Dyadic(3, -2) == Dyadic(12)


def test_takes_integers_only():
    # numpy integers and bools are integers; floats and strings are
    # rejected rather than truncated (0.5 once became 0, "7" became 7)
    x = Dyadic(np.int64(6), np.int32(2))
    assert x == Dyadic(3, 1) and type(x.num) is int and type(x.exp) is int
    assert Dyadic(True) == Dyadic(1)
    for num, exp in ((0.5, 0), ("7", 0), (1, 2.0), (1, "3")):
        with pytest.raises(TypeError):
            Dyadic(num, exp)


def test_order_matches_rationals():
    rng = random.Random(3)
    for _ in range(10_000):
        a = Dyadic(rng.randint(-1 << 20, 1 << 20), rng.randint(0, 16))
        b = Dyadic(rng.randint(-1 << 20, 1 << 20), rng.randint(0, 16))
        fa, fb = a.to_fraction(), b.to_fraction()
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert (a > b) == (fa > fb)


def test_arithmetic_matches_rationals():
    rng = random.Random(4)
    for _ in range(2000):
        a = Dyadic(rng.randint(-1 << 20, 1 << 20), rng.randint(0, 12))
        b = Dyadic(rng.randint(-1 << 20, 1 << 20), rng.randint(0, 12))
        assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()
        assert (a - b).to_fraction() == a.to_fraction() - b.to_fraction()
        assert (a * b).to_fraction() == a.to_fraction() * b.to_fraction()
        assert (-a).to_fraction() == -a.to_fraction()


def test_int_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert Dyadic(1, 1) < 1


def test_float_conversion():
    assert float(Dyadic(5, 3)) == 0.625
    huge = Dyadic((1 << 4000) + 1, 1)
    assert float(huge) == float("inf")


def test_json_and_text():
    d = Dyadic(-5, 3)
    assert d.to_json() == {"num": "-5", "exp": 3}
    assert Dyadic.from_json(d.to_json()) == d
    assert str(d) == "-5/2^3"
    assert str(Dyadic(7)) == "7"


def test_midpoint_examples():
    assert DyadicInterval(Dyadic(-1), Dyadic(1)).midpoint() == Dyadic(0)
    assert DyadicInterval(Dyadic(0), Dyadic(1)).midpoint() == Dyadic(1, 1)
    assert DyadicInterval(Dyadic(1, 1), Dyadic(3, 2)).midpoint() == Dyadic(5, 3)


def test_midpoint_strictly_inside():
    rng = random.Random(5)
    for _ in range(1000):
        a = Dyadic(rng.randint(-1 << 16, 1 << 16), rng.randint(0, 10))
        b = Dyadic(rng.randint(-1 << 16, 1 << 16), rng.randint(0, 10))
        if a == b:
            continue
        iv = DyadicInterval(min(a, b), max(a, b))
        m = iv.midpoint()
        assert iv.lo < m < iv.hi
        assert iv.width() > Dyadic(0)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        DyadicInterval(Dyadic(1), Dyadic(1))
    with pytest.raises(ValueError):
        DyadicInterval(Dyadic(1), Dyadic(0))


def test_split_and_contains():
    iv = DyadicInterval(Dyadic(0), Dyadic(1))
    left, right = iv.split()
    assert left.hi == right.lo == Dyadic(1, 1)
    assert iv.contains(Dyadic(1, 2))
    assert not iv.contains(Dyadic(0))
    assert iv.straddles_zero()
    assert not right.straddles_zero()
    # the mirror image (-hi, -lo)
    assert -right == DyadicInterval(Dyadic(-1), Dyadic(-1, 1)) and -(-iv) == iv
