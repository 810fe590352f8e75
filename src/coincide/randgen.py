"""Bit-exact pseudorandom instance generation for reproducible verification.

The generator is SplitMix64, chosen because it is trivial to reimplement
identically in any language, so a verification run is reproducible from
its seed alone.  The exact contract:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

The initial state is the seed reduced mod 2^64.  A bounded draw
``randint(lo, hi)`` is ``lo + output mod (hi - lo + 1)``; the modulo
bias is irrelevant for the tiny ranges used here and keeping the naive
reduction is part of the bit-exact contract.

A random instance is two sequences drawn as: component count of the
first sequence (1..8), then each of its durations (1..16) in order,
then the same two draws for the second sequence.
"""
from __future__ import annotations

from .recurrence import SequenceSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draw bounds of a random instance (module docstring).
_MAX_COMPONENTS = 8
_MAX_DUR = 16


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        return lo + self.next_u64() % (hi - lo + 1)


def random_sequence(rng: SplitMix64, name: str) -> SequenceSpec:
    n = rng.randint(1, _MAX_COMPONENTS)
    durs = tuple([rng.randint(1, _MAX_DUR) for _ in range(n)])
    return SequenceSpec(name, durs, tuple([f"c{i}" for i in range(n)]))


def random_instance(rng: SplitMix64) -> tuple[SequenceSpec, SequenceSpec]:
    """One verification instance: two sequences, draw order fixed."""
    x = random_sequence(rng, "x")
    y = random_sequence(rng, "y")
    return x, y
