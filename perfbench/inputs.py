"""Seeded query documents for the three benchmark workloads.

Everything here is plain Python with no import of ``coincide``: the
program under test only ever sees the documents written to disk.

The generator is SplitMix64, implemented here to the same bit-exact
contract the README states, so the ``verify-stream`` documents follow the
same draw order as ``coincide.randgen.random_instance``.

``long-windows`` and ``dense-cycle`` draw their sizes by stratified
sampling: document ``i`` of ``n`` takes each size quantile from stratum
``(i * m + c) mod n`` for a fixed multiplier ``m`` per size, and the
seed picks the point inside the stratum, the other durations, which
component is queried and the period adjustment.  Every seed therefore
yields the same spread of sizes, so the latency percentiles of one seed
stand for the family and do not swing with a lucky draw of one huge
document.
"""
from __future__ import annotations

import json
import math
import os

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Salt mixed into the seed for the run_verification seeds, so they are
# not the document stream.
VERIFY_SALT = 0x5EED

FAMILY_SIZES = {"verify-stream": 64, "long-windows": 60, "dense-cycle": 24}


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform(self) -> float:
        """A float in [0, 1) from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) / float(1 << 53)


class Doc:
    """One query: duration lists of both sequences and the queried indices."""

    __slots__ = ("durs_x", "durs_y", "p", "q")

    def __init__(self, durs_x: list[int], durs_y: list[int], p: int, q: int):
        self.durs_x = durs_x
        self.durs_y = durs_y
        self.p = p
        self.q = q

    def to_json(self) -> str:
        def seq(name, durs):
            return {
                "name": name,
                "components": [{"name": f"c{i}", "dur": d} for i, d in enumerate(durs)],
            }

        return json.dumps(
            {"x": seq("x", self.durs_x), "y": seq("y", self.durs_y), "p": self.p, "q": self.q}
        )


# Stratum multipliers: primes above 5, so coprime with every family size.
# The first sets the component count, the rest the durations in order.
X_MULS = (7, 13, 19, 29, 37)
Y_MULS = (11, 17, 23, 31, 41)


def _stratum(rng: SplitMix64, i: int, n: int, mul: int, off: int) -> float:
    # With ``mul`` coprime to ``n``, i -> (i*mul + off) mod n is a
    # permutation, so each size visits every stratum exactly once.
    return ((i * mul + off) % n + rng.uniform()) / n


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, round(lo * (hi / lo) ** u)))


def _set_gcd(rng: SplitMix64, xs: list[int], ys: list[int], p: int, q: int, g: int, step_hi: int):
    """Adjust one non-queried duration per side until gcd(D_x, D_y) == g.

    The queried components keep their durations.  ``step_hi`` bounds the
    random increments tried on the y side.
    """
    ax = (p + 1) % len(xs)
    ay = (q + 1) % len(ys)
    xs[ax] += (-sum(xs)) % g
    ys[ay] += (-sum(ys)) % g
    while math.gcd(sum(xs), sum(ys)) != g:
        ys[ay] += g * rng.randint(1, step_hi)


def verify_stream(seed: int, n: int) -> list[Doc]:
    """Tiny documents in the exact draw order of ``random_instance``.

    Counts 1-8 and durations 1-16 per side, then the queried indices.
    """
    rng = SplitMix64(seed)
    docs = []
    for _ in range(n):
        xs = [rng.randint(1, 16) for _ in range(rng.randint(1, 8))]
        ys = [rng.randint(1, 16) for _ in range(rng.randint(1, 8))]
        docs.append(Doc(xs, ys, rng.randint(0, len(xs) - 1), rng.randint(0, len(ys) - 1)))
    return docs


def long_windows(seed: int, n: int) -> list[Doc]:
    """2-4 components per side, durations log-uniform over 10-500, g in 1..3.

    Slot networks hold about ``dur / g`` entries, so ``check`` grows with
    the queried durations and the ``witness`` pair scan with their
    product; both queried durations are stratified, and g cycles 1, 2, 3.
    """
    rng = SplitMix64(seed)
    docs = []
    for i in range(n):
        g = 1 + i % 3
        sides = []
        for muls, off in ((X_MULS, 1), (Y_MULS, 5)):
            count = 2 + int(3 * _stratum(rng, i, n, muls[0], off))
            durs = [_log_uniform(_stratum(rng, i, n, m, off + k), 10, 500) for k, m in enumerate(muls[1:count + 1])]
            queried = rng.randint(0, count - 1)
            # durs[0] is the queried duration; move it to a seeded position.
            durs.insert(queried, durs.pop(0))
            sides.append((durs, queried))
        (xs, p), (ys, q) = sides
        _set_gcd(rng, xs, ys, p, q, g, 4)
        docs.append(Doc(xs, ys, p, q))
    return docs


def dense_cycle(seed: int, n: int) -> list[Doc]:
    """600-2200 components of 1-16 units per side, coprime periods of 5k-19k.

    Documents are large while every slot network has at most about 16
    entries (g is 1), and projection walks D_x + D_y incidences.  One
    non-queried y component may be raised a few units past 16 to make
    the periods coprime.
    """
    rng = SplitMix64(seed)
    docs = []
    for i in range(n):
        nx = 600 + int(1600 * _stratum(rng, i, n, 7, 1))
        ny = 600 + int(1600 * _stratum(rng, i, n, 11, 5))
        xs = [rng.randint(1, 16) for _ in range(nx)]
        ys = [rng.randint(1, 16) for _ in range(ny)]
        p = rng.randint(0, nx - 1)
        q = rng.randint(0, ny - 1)
        _set_gcd(rng, xs, ys, p, q, 1, 1)
        docs.append(Doc(xs, ys, p, q))
    return docs


FAMILIES = {"verify-stream": verify_stream, "long-windows": long_windows, "dense-cycle": dense_cycle}


def make_docs(workload: str, seed: int, n: int | None = None) -> list[Doc]:
    return FAMILIES[workload](seed, FAMILY_SIZES[workload] if n is None else n)


def write_docs(docs: list[Doc], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, f"doc-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.to_json())
        paths.append(path)
    return paths


def instance_shape(seed: int) -> tuple[int, int]:
    """Component counts of the first ``random_instance`` drawn from ``seed``."""
    rng = SplitMix64(seed)
    nx = rng.randint(1, 8)
    for _ in range(nx):
        rng.next_u64()
    return nx, rng.randint(1, 8)


class VerifySeeds:
    """Seeds for single-instance ``run_verification`` calls.

    Seeds come from a SplitMix64 stream of the workload seed, keeping the
    first whose instance has the next of the 64 (count x, count y) shapes
    in a fixed order, so every 64 calls verify each shape once and verify
    throughput does not swing with the mix of instance sizes.
    """

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed ^ VERIFY_SALT)
        self.calls = 0

    def next(self) -> int:
        cell = (self.calls * 29) % 64
        self.calls += 1
        want = (cell // 8 + 1, cell % 8 + 1)
        while True:
            seed = self.rng.next_u64()
            if instance_shape(seed) == want:
                return seed
