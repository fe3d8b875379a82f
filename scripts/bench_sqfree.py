"""Layer timing of square_free_part and of the two stages of gcd(f, f').

    python3 scripts/bench_sqfree.py --label change

Four corpora:

* ``uniform-<d>``: square-free ``benchlib.uniform`` samples for d in 16,
  64, 128, 256, 512 and 1024 (a sample whose square-free part has a lower
  degree would be left out; none is);
* ``squares``: the squares of the ``iso-cluster`` corpus of ``perfbench``
  (the fifth slot of each of ``ROUNDS`` rounds: dyadic-root products,
  Chebyshev, scaled Chebyshev and Mignotte bases, each squared);
* ``g-h2-<n>``: f = g h^2, with g sample 0 of ``uniform_model(n / 2, 8)``
  and h sample 0 of ``uniform_model(n / 4, 8)``, for deg f = n in 64, 128
  and 256;
* ``x2-g-<n>``: f = x^2 g for the first ``X2_SAMPLES`` ``benchlib.uniform``
  samples g of degree n in 64, 128 and 256: a double root at 0 beside a
  square-free g.

Each input is timed by ``benchlib.fastest``, the inputs the pre-test
declines (``squares`` and ``g-h2-<n>``) as the fastest of ``REPEATS``
blocks, since those corpora hold few inputs and a block of a 6 ms call
holds one call; a corpus reports the median, mean and maximum over its
inputs, in ms.  Timing and storage are
described in ``scripts/benchlib.py``; the run goes to
``BENCH_sqfree.json``.  One more pass over every input then wraps the two
stages of the gcd, the pre-test ``_coprime_with_derivative`` and the
modular Euclid ``_gcd_with_derivative_mod_p``, and records per corpus how
many inputs the pre-test certified and declined, the number of Euclid
runs (one per prime tried), and the median exponent k of the evaluation
point 2^k + 1 over the inputs the pre-test evaluated, read off the point
it evaluates at.

Every ``square_free_part`` and ``repeated_root_part`` output is hashed
per corpus; the script exits 1 if a corpus's hash differs from that of
another stored run.
"""

from __future__ import annotations

import hashlib
import statistics
import sys

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from corpus import _iso_cluster, poly_mul
from speed import Clock

import rootiso.polynomial as polynomial
from rootiso.models import uniform_model
from rootiso.polynomial import IntPolynomial, repeated_root_part, square_free_part

# degree: (samples, repeats per sample)
UNIFORM = {16: (100, 5), 64: (50, 5), 128: (40, 5), 256: (16, 3), 512: (8, 3), 1024: (8, 3)}
REPEATS = 15
ROUNDS = 10
X2_SAMPLES = 8


def _corpora():
    """(name, inputs, repeats) for every corpus, in print order."""
    for d, (count, repeats) in UNIFORM.items():
        polys = benchlib.uniform(d, count)
        yield f"uniform-{d}", [f for f in polys if square_free_part(f).degree == d], repeats
    squares = [item for item in _iso_cluster(benchlib.SEED, ROUNDS) if item.label.startswith("square-")]
    yield "squares", [IntPolynomial(item.coeffs) for item in squares], REPEATS
    for n in (64, 128, 256):
        g = uniform_model(n // 2, 8).sample(benchlib.SEED, 0).coeffs
        h = uniform_model(n // 4, 8).sample(benchlib.SEED, 0).coeffs
        yield f"g-h2-{n}", [IntPolynomial(poly_mul(g, poly_mul(h, h)))], REPEATS
    for n in (64, 128, 256):
        yield f"x2-g-{n}", [IntPolynomial((0, 0, *g.coeffs)) for g in benchlib.uniform(n, X2_SAMPLES)], 5


class _Stages:
    """Wraps the gcd's two stages in ``rootiso.polynomial`` for one pass,
    and the pre-test's evaluation, whose point 2^k + 1 gives k."""

    def __init__(self):
        self.pre_test = polynomial._coprime_with_derivative
        self.euclid = polynomial._gcd_with_derivative_mod_p
        self.evaluate = polynomial._value_and_slope
        self.certified = self.declined = self.euclids = 0
        self.exponents = []

    def _pre_test(self, f):
        out = self.pre_test(f)
        self.certified += out
        self.declined += not out
        return out

    def _evaluate(self, coeffs, x):
        self.exponents.append((x - 1).bit_length() - 1)
        return self.evaluate(coeffs, x)

    def _euclid(self, f, p):
        self.euclids += 1
        return self.euclid(f, p)

    def run(self, polys) -> dict:
        polynomial._gcd_with_derivative_mod_p = self._euclid
        polynomial._coprime_with_derivative = self._pre_test
        polynomial._value_and_slope = self._evaluate
        try:
            for f in polys:
                square_free_part(f)
        finally:
            polynomial._gcd_with_derivative_mod_p = self.euclid
            polynomial._coprime_with_derivative = self.pre_test
            polynomial._value_and_slope = self.evaluate
        return {
            "certified": self.certified,
            "declined": self.declined,
            "euclids": self.euclids,
            "median_k": statistics.median(self.exponents) if self.exponents else None,
        }


def run() -> dict:
    clock = Clock()
    corpora = {}
    for name, polys, repeats in _corpora():
        times, walls, parts = zip(*(benchlib.fastest(clock, lambda: square_free_part(f), repeats) for f in polys))
        digest = hashlib.sha256()
        for f, part in zip(polys, parts):
            digest.update(part.to_text().encode() + b"\n")
            digest.update(repeated_root_part(f).to_text().encode() + b"\n")
        entry = {
            "samples": len(polys),
            "repeats": repeats,
            "degrees": sorted({f.degree for f in polys}),
            "median_ms": round(statistics.median(times), 4),
            "mean_ms": round(statistics.fmean(times), 4),
            "max_ms": round(max(times), 4),
            "wall_median_ms": round(statistics.median(walls), 4),
            **_Stages().run(polys),
            "outputs_sha256": digest.hexdigest(),
        }
        corpora[name] = entry
        print(
            f"{name:13s} n {len(polys):3d}  median {entry['median_ms']:9.3f} ms  mean {entry['mean_ms']:9.3f}"
            f"  max {entry['max_ms']:9.3f}  certified {entry['certified']}  declined {entry['declined']}"
            f"  euclids {entry['euclids']}  median k {entry['median_k']}",
            flush=True,
        )
    return {"corpora": corpora}


def main(argv=None) -> int:
    runs, label, record = benchlib.run_and_store(__doc__, "BENCH_sqfree.json", run, argv=argv)
    return benchlib.compare_hashes(runs, label, record, "corpora", "outputs_sha256", "outputs")


if __name__ == "__main__":
    sys.exit(main())
