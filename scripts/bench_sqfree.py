"""Layer timing of square_free_part and of the two stages of gcd(f, f').

    python3 scripts/bench_sqfree.py --label change

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree, so the same script times any checkout.  Three corpora, all
under seed 1:

* ``uniform-<d>``: square-free ``uniform_model(d, 32)`` samples 0 ..
  count-1 for d in 16, 64, 128, 256, 512 and 1024 (a sample whose
  square-free part has a lower degree would be left out; none is);
* ``squares``: the squares of the ``iso-cluster`` corpus of ``perfbench``
  (the fifth slot of each of 10 rounds: dyadic-root products, Chebyshev,
  scaled Chebyshev and Mignotte bases, each squared);
* ``g-h2-<n>``: f = g h^2, with g sample 0 of ``uniform_model(n / 2, 8)``
  and h sample 0 of ``uniform_model(n / 4, 8)``, for deg f = n in 64, 128
  and 256.

Each input runs ``repeats`` times and its fastest time is kept; a corpus
reports the median, mean and maximum over its inputs, in ms.  Times are
scaled to a fixed reference speed by ``perfbench/speed.py`` (a fixed
big-integer kernel timed between every two calls), as in
``bench_isolate.py``; the raw wall-clock median is stored beside them.
One more pass over every input then wraps the two stages of the gcd:
the pre-test ``_coprime_with_derivative`` (absent from older checkouts,
which record null for it and for its counters) and the modular Euclid
``_gcd_with_derivative_mod_p``.  Per corpus it records the wall-clock
time spent in each stage (ms, summed over the inputs, wrapper included),
how many inputs the pre-test certified and declined, the number of
Euclid runs (one per prime tried), and the median exponent k = r + s of
the evaluation point 2^k + 1 over the inputs the pre-test evaluated.
Counts are deterministic; times depend on the machine.

The script prints one line per corpus and a sha256 of every
``square_free_part`` and ``repeated_root_part`` output, so two checkouts
can be compared for identical results as well as for time.  The run is
stored under ``runs[label]`` in ``BENCH_sqfree.json`` at the repository
root, next to the runs of other labels, with the commit (and whether
``src/`` differed from it) and the machine.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time

import benchlib  # first: it pins the BLAS threads and puts src/ on the path
from corpus import _iso_cluster, poly_mul
from speed import Clock

import rootiso.polynomial as polynomial
from rootiso.models import uniform_model
from rootiso.polynomial import IntPolynomial, repeated_root_part, square_free_part

SEED = 1
BITSIZE = 32
# degree: (samples, repeats per sample)
UNIFORM = {16: (100, 5), 64: (50, 5), 128: (40, 5), 256: (16, 3), 512: (8, 3), 1024: (8, 3)}
REPEATS = 5


def _corpora():
    """(name, inputs, repeats) for every corpus, in print order."""
    for d, (count, repeats) in UNIFORM.items():
        polys = [uniform_model(d, BITSIZE).sample(SEED, i) for i in range(count)]
        yield f"uniform-{d}", [f for f in polys if square_free_part(f).degree == d], repeats
    squares = [item for item in _iso_cluster(SEED, 10) if item.label.startswith("square-")]
    yield "squares", [IntPolynomial(item.coeffs) for item in squares], REPEATS
    for n in (64, 128, 256):
        g = uniform_model(n // 2, 8).sample(SEED, 0).coeffs
        h = uniform_model(n // 4, 8).sample(SEED, 0).coeffs
        yield f"g-h2-{n}", [IntPolynomial(poly_mul(g, poly_mul(h, h)))], REPEATS if n < 256 else 1


def _fastest_ms(clock: Clock, f: IntPolynomial, repeats: int) -> tuple[float, float]:
    """The fastest of ``repeats`` calls in ms, scaled and wall."""
    scaled_best = wall_best = float("inf")
    for _ in range(repeats):
        _, wall, scaled = clock.time(lambda: square_free_part(f))
        scaled_best, wall_best = min(scaled_best, scaled), min(wall_best, wall)
    return scaled_best * 1e3, wall_best * 1e3


class _Stages:
    """Wraps the gcd's two stages in ``rootiso.polynomial`` for one pass."""

    def __init__(self):
        self.pre_test = getattr(polynomial, "_coprime_with_derivative", None)
        self.euclid = polynomial._gcd_with_derivative_mod_p
        self.seconds = {"pre_test": 0.0, "euclid": 0.0}
        self.certified = self.declined = self.euclids = 0
        self.exponents = []

    def _pre_test(self, f):
        r = polynomial._root_exponent(f.coeffs)
        if r <= polynomial._MARGIN:
            self.exponents.append(r + polynomial._MARGIN)
        start = time.perf_counter()
        out = self.pre_test(f)
        self.seconds["pre_test"] += time.perf_counter() - start
        self.certified += out
        self.declined += not out
        return out

    def _euclid(self, f, p):
        start = time.perf_counter()
        out = self.euclid(f, p)
        self.seconds["euclid"] += time.perf_counter() - start
        self.euclids += 1
        return out

    def run(self, polys) -> dict:
        polynomial._gcd_with_derivative_mod_p = self._euclid
        if self.pre_test is not None:
            polynomial._coprime_with_derivative = self._pre_test
        try:
            for f in polys:
                square_free_part(f)
        finally:
            polynomial._gcd_with_derivative_mod_p = self.euclid
            if self.pre_test is not None:
                polynomial._coprime_with_derivative = self.pre_test
        has_pre_test = self.pre_test is not None
        return {
            "stages_wall_ms": {
                "pre_test": round(self.seconds["pre_test"] * 1e3, 4) if has_pre_test else None,
                "euclid": round(self.seconds["euclid"] * 1e3, 4),
            },
            "certified": self.certified if has_pre_test else None,
            "declined": self.declined if has_pre_test else None,
            "euclids": self.euclids,
            "median_k": statistics.median(self.exponents) if self.exponents else None,
        }


def run() -> tuple[dict, str]:
    clock = Clock()
    digest = hashlib.sha256()
    corpora = {}
    for name, polys, repeats in _corpora():
        times, walls = zip(*(_fastest_ms(clock, f, repeats) for f in polys))
        for f in polys:
            digest.update(square_free_part(f).to_text().encode() + b"\n")
            digest.update(repeated_root_part(f).to_text().encode() + b"\n")
        entry = {
            "inputs": len(polys),
            "repeats": repeats,
            "degrees": sorted({f.degree for f in polys}),
            "median_ms": round(statistics.median(times), 4),
            "mean_ms": round(statistics.fmean(times), 4),
            "max_ms": round(max(times), 4),
            "wall_median_ms": round(statistics.median(walls), 4),
            **_Stages().run(polys),
        }
        corpora[name] = entry
        stages = entry["stages_wall_ms"]
        print(
            f"{name:13s} n {len(polys):3d}  median {entry['median_ms']:9.3f} ms  mean {entry['mean_ms']:9.3f}"
            f"  max {entry['max_ms']:9.3f}  pre-test {stages['pre_test']} ms  euclid {stages['euclid']} ms"
            f"  certified {entry['certified']}  declined {entry['declined']}  euclids {entry['euclids']}"
            f"  median k {entry['median_k']}",
            flush=True,
        )
    print(f"outputs sha256 {digest.hexdigest()}")
    return corpora, digest.hexdigest()


def main(argv=None) -> int:
    def record() -> dict:
        corpora, sha = run()
        return {"seed": SEED, "outputs_sha256": sha, "corpora": corpora}

    benchlib.run_and_store(__doc__, "BENCH_sqfree.json", record, machine_numpy=False, argv=argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
