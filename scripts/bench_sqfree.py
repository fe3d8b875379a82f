"""Layer timing of square_free_part on inputs with repeated roots.

    python3 scripts/bench_sqfree.py

Run from the repository root; ``rootiso`` is imported from ``src/`` of
this tree, so the same script times any checkout.  Two corpora:

* the squares of the seed-1 ``iso-cluster`` corpus of ``perfbench`` (the
  fifth slot of each of 10 rounds: dyadic-root products, Chebyshev,
  scaled Chebyshev and Mignotte bases, each squared);
* f = g h^2, with g sample 0 of ``uniform_model(n / 2, 8)`` and h sample 0
  of ``uniform_model(n / 4, 8)`` under seed 1, for deg f = n in 64, 128
  and 256.

Each input runs ``REPEATS`` times (once at deg f = 256) and its fastest
wall-clock time is kept.  The script prints one line per input, in ms,
and a sha256 of every output, so two checkouts can be compared for
identical results as well as for time.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from corpus import _iso_cluster, poly_mul  # noqa: E402

from rootiso.models import uniform_model  # noqa: E402
from rootiso.polynomial import IntPolynomial, square_free_part  # noqa: E402

REPEATS = 5
SEED = 1


def _fastest(f: IntPolynomial, repeats: int) -> tuple[float, IntPolynomial]:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = square_free_part(f)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, out


def main() -> None:
    digest = hashlib.sha256()
    squares = [item for item in _iso_cluster(SEED, 10) if item.label.startswith("square-")]
    times = []
    for item in squares:
        ms, out = _fastest(IntPolynomial(item.coeffs), REPEATS)
        times.append(ms)
        digest.update(out.to_text().encode() + b"\n")
        print(f"{item.label:16s} deg {len(item.coeffs) - 1:3d}  {ms:9.2f} ms")
    print(f"iso-cluster squares: mean {statistics.fmean(times):.2f} ms, max {max(times):.2f} ms")
    for n in (64, 128, 256):
        g = uniform_model(n // 2, 8).sample(SEED, 0).coeffs
        h = uniform_model(n // 4, 8).sample(SEED, 0).coeffs
        f = IntPolynomial(poly_mul(g, poly_mul(h, h)))
        ms, out = _fastest(f, REPEATS if n < 256 else 1)
        digest.update(out.to_text().encode() + b"\n")
        print(f"g h^2 deg {n:3d}      deg {out.degree:3d}  {ms:9.2f} ms")
    print(f"outputs sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
