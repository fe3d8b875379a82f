import json
import random

import pytest

from rootiso.polynomial import IntPolynomial

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    # the property tests draw the same examples on every run, so the whole
    # suite is fixed-seed; derandomize also turns off the example database
    settings.register_profile("fixed-seed", derandomize=True)
    settings.load_profile("fixed-seed")


def make_poly(rng: random.Random, degree: int, bitsize: int) -> IntPolynomial:
    """Random nonzero polynomial of exact degree with |coeffs| <= 2^bitsize."""
    bound = 1 << bitsize
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if coeffs[-1] != 0:
            return IntPolynomial(coeffs)


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.fixture(scope="session")
def strict_loads():
    """``json.loads`` that rejects ``Infinity``, ``-Infinity`` and ``NaN``."""
    return lambda text: json.loads(text, parse_constant=_reject_constant)
