"""The shared slot grid of two sequences and its residue arithmetic.

Cutting each period of both sequences into blocks of g = gcd(D_x, D_y)
units produces one grid of equal slots covering the whole joint cycle.
A period of x holds R = D_x / g slots and a period of y holds S = D_y / g;
R and S are coprime, so by the Chinese remainder theorem each pair of
period-local slot positions (r, s) lines up at exactly one grid slot per
cycle.  That alignment is what lets a per-period comparison answer a
whole-cycle question.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import CoincideError
from .recurrence import IndexOutOfRange, SequenceSpec


class BadGcd(CoincideError):
    """The slot duration does not divide the sequence period."""


@dataclass(frozen=True)
class GcdPartition:
    """Slot grid of a sequence pair.

    slot_dur: length of one slot, gcd of the two periods.
    slots_x:  slots per period of the first sequence (R).
    slots_y:  slots per period of the second sequence (S).

    The joint cycle holds ``slots_x * slots_y`` slots.
    """

    slot_dur: int
    slots_x: int
    slots_y: int

    @property
    def cycle_slots(self) -> int:
        return self.slots_x * self.slots_y


def build_gcd_partition(x: SequenceSpec, y: SequenceSpec) -> GcdPartition:
    """Slot grid for the pair ``(x, y)``."""
    dx = x.total_dur
    dy = y.total_dur
    g = math.gcd(dx, dy)
    return GcdPartition(g, dx // g, dy // g)


def align_slot(part: GcdPartition, r: int, s: int) -> int:
    """The unique cycle slot k with k = r (mod R) and k = s (mod S).

    Existence and uniqueness on ``[0, R*S)`` follow from R and S being
    coprime; a hand-built partition whose R and S are not raises
    ``BadGcd``.
    """
    big_r, big_s = part.slots_x, part.slots_y
    for name, v, bound in (("r", r, big_r), ("s", s, big_s)):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
            raise IndexOutOfRange(f"slot residue {name}={v!r} out of range [0, {bound})")
    return _crt(part, _inverse(part), r, s)


def _inverse(part: GcdPartition) -> int:
    """``R^-1 mod S``, the one modular inverse of the CRT step."""
    try:
        return pow(part.slots_x, -1, part.slots_y)
    except ValueError:
        raise BadGcd(f"slot counts R={part.slots_x} and S={part.slots_y} are not coprime") from None


def _crt(part: GcdPartition, inv: int, r: int, s: int) -> int:
    """The CRT step of ``align_slot`` for in-range residues, given ``inv = R^-1 mod S``."""
    return r + part.slots_x * ((s - r) * inv % part.slots_y)
