from __future__ import annotations

import math

import pytest
from hypothesis import given

from coincide import (
    GcdPartition,
    IndexOutOfRange,
    Interval,
    align_slot,
    build_gcd_partition,
    cycle_duration,
    sequence,
)
from .conftest import sequence_pairs
from .refimpl import scan_align


def test_build_examples(weekday, machine):
    assert build_gcd_partition(weekday, machine) == GcdPartition(1, 7, 8)
    # durations (8, 4): the slot size is gcd(8, 4) = 4, giving coprime
    # per-period slot counts (2, 1); a coarser split such as 2 would not
    # keep the counts coprime and the residue alignment would not reach
    # every slot pair.
    assert build_gcd_partition(sequence("a", 8), sequence("b", 4)) == GcdPartition(4, 2, 1)
    assert build_gcd_partition(sequence("a", 6), sequence("b", 2, 4)) == GcdPartition(6, 1, 1)


def test_align_examples():
    assert align_slot(GcdPartition(1, 7, 8), 2, 5) == 37
    assert scan_align(7, 8, 2, 5) == 37
    assert align_slot(GcdPartition(1, 7, 8), 0, 0) == 0
    assert align_slot(GcdPartition(4, 2, 1), 1, 0) == 1


def test_align_range_errors():
    part = GcdPartition(1, 7, 8)
    with pytest.raises(IndexOutOfRange):
        align_slot(part, 7, 0)
    with pytest.raises(IndexOutOfRange):
        align_slot(part, 0, 8)


@pytest.mark.parametrize("r, s", [(True, False), (False, 0), (0, True), (1.0, 0), (0, "1")])
def test_align_rejects_non_int_residues(r, s):
    with pytest.raises(IndexOutOfRange):
        align_slot(GcdPartition(1, 7, 8), r, s)


@given(sequence_pairs())
def test_partition_invariants(pair):
    x, y = pair
    part = build_gcd_partition(x, y)
    assert part.slot_dur * part.slots_x == x.total_dur
    assert part.slot_dur * part.slots_y == y.total_dur
    assert math.gcd(part.slots_x, part.slots_y) == 1
    cycle = cycle_duration(x, y)
    assert part.cycle_slots * part.slot_dur == cycle
    # per-cycle period counts cross over: S periods of x, R periods of y
    assert cycle // x.total_dur == part.slots_y
    assert cycle // y.total_dur == part.slots_x
    # the joint cycle is also the repeat of the two slot grids themselves
    assert math.lcm(part.slots_x * part.slot_dur, part.slots_y * part.slot_dur) == cycle


@given(sequence_pairs(max_components=6, max_dur=12))
def test_residue_map_is_a_bijection(pair):
    x, y = pair
    part = build_gcd_partition(x, y)
    big_r, big_s = part.slots_x, part.slots_y
    seen = set()
    for k in range(big_r * big_s):
        seen.add((k % big_r, k % big_s))
        assert align_slot(part, k % big_r, k % big_s) == k
    assert len(seen) == big_r * big_s


@given(sequence_pairs(max_components=5, max_dur=10))
def test_align_matches_exhaustive_scan(pair):
    x, y = pair
    part = build_gcd_partition(x, y)
    for r in range(part.slots_x):
        for s in range(part.slots_y):
            assert align_slot(part, r, s) == scan_align(part.slots_x, part.slots_y, r, s)


@given(sequence_pairs(max_components=6, max_dur=12))
def test_every_component_overlaps_a_slot(pair):
    x, y = pair
    part = build_gcd_partition(x, y)
    g = part.slot_dur
    for spec in (x, y):
        for p in range(spec.length):
            w = Interval(spec.offsets()[p], spec.durs[p])
            r = w.start // g
            slot = Interval(r * g, g)
            assert max(w.start, slot.start) < min(w.end, slot.end)
