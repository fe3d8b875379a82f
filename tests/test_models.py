import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootiso.models import (
    exact_bitsize_model,
    signs_model,
    smoothed_model,
    support_model,
    uniform_model,
)
from rootiso.polynomial import IntPolynomial


class TestUniform:
    def test_range_and_frequencies(self):
        # tau = 1: five values, each close to 1/5 of the draws (3 sigma band)
        model = uniform_model(2, 1)
        freq = {v: 0 for v in range(-2, 3)}
        draws = 0
        for i in range(33_334):
            f = model.sample(101, i)
            for j in range(3):
                freq[f.coefficient(j)] += 1
                draws += 1
        p = 1.0 / 5.0
        sigma = math.sqrt(draws * p * (1 - p))
        for v, n in freq.items():
            assert abs(n - draws * p) <= 3 * sigma, (v, n)

    def test_parameters(self):
        model = uniform_model(8, 16)
        assert model.tau_bound() == 16
        assert model.uniformity() == 0.0
        assert not model.uniformity_is_bound


class TestSigns:
    def test_never_zero_and_sign_respected(self):
        model = signs_model(3, 6, [1, 1, 1, -1])
        for i in range(500):
            f = model.sample(7, i)
            cs = [f.coefficient(j) for j in range(4)]
            assert all(c >= 1 for c in cs[:3])
            assert cs[3] <= -1
            assert all(1 <= abs(c) <= 64 for c in cs)

    def test_uniformity_below_ln3(self):
        assert 0.0 < signs_model(4, 10, [1] * 5).uniformity() <= math.log(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            signs_model(3, 6, [1, 1, 1])  # wrong length
        with pytest.raises(ValueError):
            signs_model(3, 6, [1, 2, 1, 1])


class TestSupport:
    def test_zeros_off_support(self):
        model = support_model(10, 8, [0, 1, 5, 9, 10])
        for i in range(300):
            f = model.sample(3, i)
            for j in range(11):
                if j not in {0, 1, 5, 9, 10}:
                    assert f.coefficient(j) == 0

    def test_required_positions(self):
        with pytest.raises(ValueError, match="support must contain"):
            support_model(10, 8, [0, 1, 5])
        with pytest.raises(ValueError):
            support_model(10, 8, [0, 1, 9, 10, 11])

    def test_uniformity_zero(self):
        assert support_model(10, 8, [0, 1, 5, 9, 10]).uniformity() == 0.0


class TestExactBitsize:
    def test_magnitude_window(self):
        model = exact_bitsize_model(4, 6)
        for i in range(500):
            f = model.sample(9, i)
            for j in range(5):
                assert 32 <= abs(f.coefficient(j)) <= 63

    def test_tau_one(self):
        model = exact_bitsize_model(2, 1)
        values = {model.sample(5, i).coefficient(0) for i in range(200)}
        assert values == {-1, 1}

    def test_uniformity_below_ln3(self):
        assert 0.0 < exact_bitsize_model(4, 6).uniformity() <= math.log(3.0)


class TestSmoothed:
    def test_leading_coefficient_window(self):
        # x^d + sigma * uniform draw: leading coefficient in [1 - 2^tau, 1 + 2^tau]
        d, tau = 5, 4
        model = smoothed_model(IntPolynomial([0] * d + [1]), 1, uniform_model(d, tau))
        for i in range(400):
            f = model.sample(11, i)
            assert 1 - 2**tau <= f.coefficient(d) <= 1 + 2**tau

    def test_parameter_bounds(self):
        shift = IntPolynomial([3, 0, -9, 1])
        base = uniform_model(3, 5)
        model = smoothed_model(shift, -6, base)
        assert model.tau_bound() == max(shift.bitsize_tau(), 5 + 3) + 1
        assert model.uniformity() == 1.0 + max(shift.bitsize_tau() - 5, 3) + 0.0
        assert model.uniformity_is_bound

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            smoothed_model(IntPolynomial([1]), 0, uniform_model(3, 5))
        with pytest.raises(ValueError, match="degree"):
            smoothed_model(IntPolynomial([0] * 9 + [1]), 1, uniform_model(3, 5))


class TestDeterminismAndBitsize:
    @pytest.mark.parametrize(
        "model",
        [
            uniform_model(4, 12),
            support_model(6, 9, [0, 1, 3, 5, 6]),
            signs_model(3, 7, [1, -1, 1, -1]),
            exact_bitsize_model(5, 8),
            smoothed_model(IntPolynomial([2, 0, 0, 1]), 3, uniform_model(3, 6)),
        ],
        ids=lambda m: m.kind,
    )
    def test_reproducible_and_bounded(self, model):
        tau = model.tau_bound()
        for i in range(20_000):
            f = model.sample(77, i)
            assert f == model.sample(77, i)
            if not f.is_zero:
                assert f.bitsize_tau() <= tau

    def test_index_and_seed_decorrelate(self):
        model = uniform_model(8, 16)
        assert model.sample(1, 0) != model.sample(1, 1)
        assert model.sample(1, 0) != model.sample(2, 0)

    def test_describe(self):
        assert uniform_model(8, 16).describe() == "uniform(d=8,tau=16)"
        assert "A={0,1,4,5}" in support_model(5, 4, [0, 1, 4, 5]).describe()
        assert "s=+-" in signs_model(1, 4, [1, -1]).describe()
        assert "base=uniform" in smoothed_model(IntPolynomial([1]), 2, uniform_model(2, 4)).describe()


class _ReferenceStream:
    """The per-coefficient bit source the sampler was first written with:
    a deterministic stream keyed by (seed, index, position)."""

    def __init__(self, seed: int, index: int, position: int):
        self._prefix = f"{seed}:{index}:{position}:".encode()
        self._counter = 0
        self._pool = 0
        self._pool_bits = 0

    def take_bits(self, k: int) -> int:
        while self._pool_bits < k:
            block = hashlib.sha256(self._prefix + str(self._counter).encode()).digest()
            self._counter += 1
            self._pool = (self._pool << 256) | int.from_bytes(block, "big")
            self._pool_bits += 256
        value = self._pool & ((1 << k) - 1)
        self._pool >>= k
        self._pool_bits -= k
        return value

    def below(self, bound: int) -> int:
        k = (bound - 1).bit_length()
        while True:
            v = self.take_bits(k)
            if v < bound:
                return v


def _reference_sample(model, seed, index):
    tau = model.bitsize
    coeffs = []
    for position in range(model.degree + 1):
        stream = _ReferenceStream(seed, index, position)
        if model.kind == "support" and position not in model.support:
            coeffs.append(0)
        elif model.kind in ("uniform", "support"):
            coeffs.append(stream.below((1 << (tau + 1)) + 1) - (1 << tau))
        elif model.kind == "signs":
            coeffs.append(model.signs[position] * (stream.take_bits(tau) + 1))
        else:
            sign = 1 if stream.take_bits(1) else -1
            coeffs.append(sign * ((1 << (tau - 1)) + stream.take_bits(tau - 1)))
    return IntPolynomial(coeffs)


@st.composite
def _models(draw):
    degree = draw(st.integers(1, 12))
    # widths past 256 bits refill the pool in the middle of a draw
    tau = draw(st.sampled_from([1, 2, 3, 7, 16, 32, 62, 253, 254, 255, 256, 257, 300, 600]))
    kind = draw(st.sampled_from(["uniform", "support", "signs", "exactbits"]))
    if kind == "uniform":
        return uniform_model(degree, tau)
    if kind == "support":
        extra = draw(st.sets(st.integers(0, degree)))
        return support_model(degree, tau, extra | {0, 1, degree - 1, degree})
    if kind == "signs":
        return signs_model(degree, tau, draw(st.lists(st.sampled_from([-1, 1]), min_size=degree + 1, max_size=degree + 1)))
    return exact_bitsize_model(degree, tau)


class TestSamplerBits:
    @given(_models(), st.integers(0, 2**70), st.integers(0, 10**6))
    def test_matches_reference_stream(self, model, seed, index):
        assert model.sample(seed, index) == _reference_sample(model, seed, index)

    def test_matches_reference_stream_uniform_corpus(self):
        for d in (16, 64, 128):
            model = uniform_model(d, 32)
            for i in range(8):
                assert model.sample(1, i) == _reference_sample(model, 1, i)


class TestModelValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            uniform_model(0, 4)
        with pytest.raises(ValueError):
            uniform_model(4, 0)
