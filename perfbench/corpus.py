"""Seeded input corpora for the four benchmark workloads.

Every workload is a sequence of *rounds*; a round is one input for each
slot of the workload's fixed mix (for example one Chebyshev, one
Mignotte and three other structured inputs for ``iso-cluster``).  The seed picks the free
parameters inside each slot, never the mix itself, so runs on different
seeds do the same kind of work in the same proportions.

Structured families are built here with plain integer arithmetic, and
their real-root counts and square-free factors are known by
construction.  For random polynomials the reference count comes from
``numpy.roots``, which shares no code with ``rootiso``; it takes a few
seconds per corpus, so ``attach_references`` runs it once per corpus in a
child process and caches the result under ``perfbench/.work/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")


@dataclass(frozen=True)
class Item:
    """One operation's input.

    ``coeffs`` are c_0 .. c_d.  For isolation items ``sqfree`` is a known
    square-free polynomial with the same real roots and ``ref`` the
    inclusive range the real-root count must fall in (None until the
    numeric reference has been attached).  ``steps`` items carry the
    degree and seed of one ``run_steps_scaling`` trial instead.
    """

    kind: str  # iso | analyze | steps
    label: str
    coeffs: tuple = ()
    sqfree: tuple = ()
    ref: tuple | None = None
    degree: int = 0
    seed: int = 0


# ---------------------------------------------------------------------------
# Integer polynomial helpers (independent of rootiso)
# ---------------------------------------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def chebyshev(n: int) -> list:
    """T_n by T_{k+1} = 2x T_k - T_{k-1}: n simple roots in (-1, 1)."""
    t0, t1 = [1], [0, 1]
    if n == 0:
        return t0
    for _ in range(n - 1):
        t2 = [0] + [2 * c for c in t1]
        for i, c in enumerate(t0):
            t2[i] -= c
        t0, t1 = t1, t2
    return t1


def scaled_chebyshev(n: int) -> list:
    """4^n T_n(x/4): the roots of T_n stretched onto (-4, 4)."""
    return [c * 4 ** (n - i) for i, c in enumerate(chebyshev(n))]


def mignotte(d: int, a: int) -> list:
    """x^d - 2(ax - 1)^2, a >= 3: two roots about a^(-d/2) apart near 1/a.

    Descartes' rule gives at most 3 positive roots, and the signs at 0,
    1/a, 2/a and +oo show 3; x -> -x leaves one sign change for even d
    and none for odd d.  So there are 4 real roots for even d, 3 for odd.
    """
    c = [0] * (d + 1)
    c[d] += 1
    c[0] -= 2
    c[1] += 4 * a
    c[2] -= 2 * a * a
    return c


def mignotte_real_roots(d: int) -> int:
    return 4 if d % 2 == 0 else 3


def dyadic_product(rng: random.Random, k: int) -> list:
    """Product of k distinct primitive factors (2^e x - m), m odd or e = 0.

    About four in five roots m / 2^e lie in (-1, 1), where they are
    subdivision midpoints once e is small.  The rest lie outside [-1, 1]:
    powers of two, whose reciprocals are dyadic, and odd numerators over
    1, 2 or 4 between 2 and 16, whose reciprocals are not, so that they
    come back as inverted intervals or inverted exact roots.
    """
    roots = set()
    while len(roots) < k:
        if rng.random() < 0.8:
            e = rng.randint(1, 7)
            m = rng.randrange(1, 1 << e, 2) * rng.choice((-1, 1))
        elif rng.random() < 0.5:
            e, m = 0, rng.choice((-1, 1)) << rng.randint(1, 4)
        else:
            e = rng.randint(0, 2)
            m = rng.randrange((2 << e) + 1, 16 << e, 2) * rng.choice((-1, 1))
        roots.add((m, e))
    poly = [1]
    for m, e in sorted(roots):
        poly = poly_mul(poly, [-m, 1 << e])
    return poly


# ---------------------------------------------------------------------------
# Workload corpora
# ---------------------------------------------------------------------------


def _uniform(d: int, seed: int, index: int) -> list:
    """Sample ``index`` of ``uniform_model(d, 32)`` under the workload seed."""
    from rootiso.models import uniform_model

    return list(uniform_model(d, 32).sample(seed, index).coeffs)


def _iso_random(seed: int, rounds: int) -> list:
    polys = (tuple(_uniform(128, seed, i)) for i in range(rounds))
    return [Item("iso", "uniform-128", c, c) for c in polys]


# Parameter ranges keep every slot of an iso-cluster round near 60 ms on
# the reference machine, so that the latency percentiles fall inside one
# dense cluster instead of between slots of very different cost.


def _square_item(rng: random.Random, r: int) -> Item:
    base_kind = ("dyadic", "cheb", "cheb4", "mignotte")[r % 4]
    if base_kind == "dyadic":
        k = rng.randint(20, 22)
        base, count = dyadic_product(rng, k), k
    elif base_kind == "cheb":
        n = rng.randint(48, 52)
        base, count = chebyshev(n), n
    elif base_kind == "cheb4":
        n = rng.randint(44, 48)
        base, count = scaled_chebyshev(n), n
    else:
        d = rng.randint(36, 38)
        base, count = mignotte(d, rng.randint(9, 13)), mignotte_real_roots(d)
    return Item(
        "iso", f"square-{base_kind}", tuple(poly_mul(base, base)), tuple(base), (count, count)
    )


def _iso_cluster(seed: int, rounds: int) -> list:
    rng = random.Random(f"iso-cluster:{seed}")
    items = []
    for r in range(rounds):
        n = rng.randint(56, 60)
        c = chebyshev(n)
        items.append(Item("iso", "chebyshev", tuple(c), tuple(c), (n, n)))
        n = rng.randint(56, 60)
        c = scaled_chebyshev(n)
        items.append(Item("iso", "scaled-chebyshev", tuple(c), tuple(c), (n, n)))
        d = rng.randint(40, 42)
        c = mignotte(d, rng.randint(9, 13))
        count = mignotte_real_roots(d)
        items.append(Item("iso", "mignotte", tuple(c), tuple(c), (count, count)))
        k = rng.randint(56, 64)
        c = dyadic_product(rng, k)
        items.append(Item("iso", "dyadic-product", tuple(c), tuple(c), (k, k)))
        items.append(_square_item(rng, r))
    return items


def _analyze(seed: int, rounds: int) -> list:
    return [Item("analyze", "uniform-64", tuple(_uniform(64, seed, i))) for i in range(rounds)]


def _mc_steps(seed: int, rounds: int) -> list:
    items = []
    for r in range(rounds):
        for slot, d in enumerate((16, 64, 64)):
            items.append(Item("steps", f"steps-{d}", degree=d, seed=seed * 100_000 + 3 * r + slot))
    return items


BUILDERS = {
    "iso-random": _iso_random,
    "iso-cluster": _iso_cluster,
    "analyze": _analyze,
    "mc-steps": _mc_steps,
}


def build(workload: str, seed: int, rounds: int) -> list:
    """The first ``rounds`` rounds of the workload's corpus, slot by slot."""
    return BUILDERS[workload](seed, rounds)


def build_probe(workload: str, seed: int) -> list:
    """Inputs run once per run, after the timed loop.

    ``analyze`` probes the Aberth oracle at d = 256 (sample indices 0..7),
    where it is known not to converge on some inputs.  Their cost per
    input spreads too widely for a 15 s loop to time steadily, so they
    count in ``ok_frac`` and the traced run but not in the latencies.
    """
    if workload != "analyze":
        return []
    return [Item("analyze", "uniform-256", tuple(_uniform(256, seed, i))) for i in range(8)]


def warmup_item(workload: str, seed: int) -> Item:
    """A small input that runs the workload's code path once."""
    if workload == "mc-steps":
        return Item("steps", "steps-16", degree=16, seed=seed * 1000 + 999)
    c = _uniform(16, seed, 1 << 20)
    return Item("analyze" if workload == "analyze" else "iso", "warmup", tuple(c), tuple(c))


# ---------------------------------------------------------------------------
# Numeric reference counts for random inputs
# ---------------------------------------------------------------------------

# numpy.roots returns eigenvalues of a real companion matrix, so real roots
# come back with imaginary part exactly 0.  A root with |Im z| inside
# (_REAL_CUT, _COMPLEX_CUT] times max(1, |z|) cannot be classified and
# widens the accepted count range instead of being guessed.
_REAL_CUT = 1e-9
_COMPLEX_CUT = 1e-5


def numeric_count_range(coeffs) -> tuple:
    import numpy as np

    roots = np.roots(np.array(coeffs[::-1], dtype=float))
    scale = np.maximum(1.0, np.abs(roots))
    im = np.abs(roots.imag) / scale
    sure = int(np.sum(im <= _REAL_CUT))
    unsure = int(np.sum((im > _REAL_CUT) & (im <= _COMPLEX_CUT)))
    return sure, sure + unsure


def _corpus_key(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(" ".join(map(str, it.coeffs)).encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def attach_references(items) -> list:
    """Fill ``ref`` on the items that lack it, from the cache or a child
    process that runs ``numpy.roots`` (kept out of this process so that
    neither the timed loop nor its peak RSS pays for it)."""

    def needs_ref(it):
        return it.kind == "iso" and it.ref is None

    todo = [it for it in items if needs_ref(it)]
    if not todo:
        return items
    unique = list({it.coeffs: it for it in todo}.values())
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"ref-{_corpus_key(unique)}.json")
    if not os.path.exists(path):
        src = path + ".in"
        with open(src, "w") as fh:
            json.dump([list(map(str, it.coeffs)) for it in unique], fh)
        subprocess.run([sys.executable, os.path.abspath(__file__), src, path], check=True, timeout=170)
        os.remove(src)
    with open(path) as fh:
        ranges = json.load(fh)
    by_coeffs = {it.coeffs: tuple(rg) for it, rg in zip(unique, ranges)}
    return [replace(it, ref=by_coeffs[it.coeffs]) if needs_ref(it) else it for it in items]


def _reference_main(src: str, dst: str) -> None:
    with open(src) as fh:
        polys = [[int(c) for c in p] for p in json.load(fh)]
    ranges = [numeric_count_range(p) for p in polys]
    tmp = dst + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ranges, fh)
    os.replace(tmp, dst)


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    _reference_main(sys.argv[1], sys.argv[2])
