from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincide import (
    IndexOutOfRange,
    Interval,
    Relation,
    align_slot,
    allen_relation,
    build_gcd_partition,
    check_pair,
    create_network,
    cycle_duration,
    decide,
    enumerate_coincidences,
    fired_theorems,
    first_coincidence,
    incidences_of,
    network_decide,
    oracle_decide,
    sequence,
)
from coincide.coincidence import _ShiftKernel, _entry, _first_hit
from coincide.oracle import project
from .conftest import (
    dense_walk_queries,
    large_sequence_pairs,
    many_window_queries,
    sequence_pairs,
    sparse_walk_queries,
)
from .refimpl import frame_overlap, frame_window, naive_windows, scan_first_window, sorted_windows


def _entry_at(spec, g, p, r):
    """The entry at slot ``r`` of the network of ``spec[p]``."""
    (entry,) = [e for e in create_network(spec, g, p).entries if e.slot == r]
    return entry


def test_check_pair_examples():
    # x[0] = [0, 3) and y[1] = [2, 4) in one 4-unit slot overlap.
    x, y = sequence("x", 3, 1), sequence("y", 2, 2)
    assert check_pair(_entry_at(x, 4, 0, 0), _entry_at(y, 4, 1, 0), 4) is True
    # y[0] = [0, 2) and y[1] = [2, 4) only meet.
    assert check_pair(_entry_at(y, 4, 0, 0), _entry_at(y, 4, 1, 0), 4) is False
    # Windows hanging over the start of slot 1, in-slot [0, 1) and [0, 2),
    # against w[1] = [1, 2) floating inside slot 0.
    during = _entry_at(sequence("w", 1, 1, 6), 4, 1, 0)
    assert check_pair(_entry_at(sequence("z", 5, 3), 4, 0, 1), during, 4) is False
    assert check_pair(_entry_at(sequence("z", 6, 2), 4, 0, 1), during, 4) is True


def test_check_pair_equals_full_frame_overlap_on_every_small_window():
    # Complete on its range, not sampled: for every slot size g <= 6, every
    # window with start a < 2g and duration d <= 3g (padded so the period is
    # a multiple of g), and every pair of entries of two such windows.
    for g in range(1, 7):
        framed = []
        for a in range(2 * g):
            for d in range(1, 3 * g + 1):
                durs = ([a] if a else []) + [d] + ([-(a + d) % g] if (a + d) % g else [])
                spec = sequence("s", *durs)
                p = 1 if a else 0
                framed += [
                    (e, frame_window(spec, p, e.slot, g)) for e in create_network(spec, g, p).entries
                ]
        for ex, wx in framed:
            for ey, wy in framed:
                assert check_pair(ex, ey, g) == frame_overlap(wx, wy)


def test_fired_production_line(pl1, pl2):
    g = build_gcd_partition(pl1, pl2).slot_dur
    ex = create_network(pl1, g, 0).entries[0]
    ey = create_network(pl2, g, 1).entries[0]
    assert fired_theorems(ex, ey, g) == {"C6.2"}


def test_fired_super_slot(weekday, machine):
    g = build_gcd_partition(weekday, machine).slot_dur
    ex = create_network(weekday, g, 2).entries[0]
    ey = create_network(machine, g, 1).entries[0]
    assert ey.rel is Relation.STARTED_BY
    assert "T6.9" in fired_theorems(ex, ey, g)


def test_fired_same_anchor():
    x = sequence("x", 2, 6)
    y = sequence("y", 3, 5)
    g = build_gcd_partition(x, y).slot_dur
    ex = create_network(x, g, 0).entries[0]
    ey = create_network(y, g, 0).entries[0]
    assert ex.rel is Relation.STARTS and ey.rel is Relation.STARTS
    assert "T6.7" in fired_theorems(ex, ey, g)


def test_decide_factory(weekday, machine, machine_short_rest):
    d = decide(weekday, machine, 2, 1)
    assert d.coincides is True
    assert d.witness == Interval(37, 1)
    assert d.via == (2, 5)
    assert decide(weekday, machine_short_rest, 2, 1).coincides is False


def test_decide_production_line(pl1, pl2):
    d = decide(pl1, pl2, 1, 1)
    assert d.coincides is True
    assert d.witness == Interval(3, 1)
    d2 = decide(pl1, pl2, 0, 1)
    assert d2.coincides is True
    assert d2.witness == Interval(2, 1)


def test_decide_index_errors(weekday, machine):
    with pytest.raises(IndexOutOfRange):
        decide(weekday, machine, 7, 0)
    with pytest.raises(IndexOutOfRange):
        decide(weekday, machine, 0, 2)


def test_first_coincidence_examples(weekday, machine, machine_short_rest, pl1, pl2):
    assert first_coincidence(weekday, machine, 2, 1) == Interval(23, 1)
    assert first_coincidence(pl1, pl2, 0, 1) == Interval(2, 1)
    assert first_coincidence(weekday, machine_short_rest, 2, 1) is None


@settings(deadline=None)
@given(sequence_pairs(max_components=6, max_dur=12))
def test_grid_verdict_matches_projection(pair):
    x, y = pair
    for p in range(x.length):
        for q in range(y.length):
            windows = naive_windows(x, y, p, q)
            d = decide(x, y, p, q)
            assert d.coincides == bool(windows)
            if d.witness is not None:
                assert d.witness in windows
            first = first_coincidence(x, y, p, q)
            assert first == (windows[0] if windows else None)


def _assert_kernel_agrees(x, y):
    for p in range(x.length):
        for q in range(y.length):
            rep = oracle_decide(x, y, p, q)
            d = decide(x, y, p, q)
            assert d.coincides == network_decide(x, y, p, q)[0] == rep.decision.coincides
            assert d.witness is None or d.witness in rep.windows
            first = first_coincidence(x, y, p, q)
            assert first == rep.decision.witness == scan_first_window(x, y, p, q)
            assert enumerate_coincidences(x, y, p, q) == rep.windows


@settings(deadline=None)
@given(sequence_pairs(max_components=6, max_dur=12))
def test_kernel_agrees_with_networks_and_projection(pair):
    _assert_kernel_agrees(*pair)


@settings(deadline=None)
@given(large_sequence_pairs())
def test_kernel_agrees_at_large_durations(pair):
    _assert_kernel_agrees(*pair)


@settings(deadline=None)
@given(many_window_queries())
def test_first_coincidence_equals_the_window_scan_on_many_windows(query):
    assert first_coincidence(*query) == scan_first_window(*query)


def test_first_hit_equals_brute_force_on_every_small_modulus():
    for m in range(1, 41):
        for a in range(m):
            if math.gcd(a, m) != 1:
                continue
            residues = [a * k % m for k in range(m)]
            for low in range(m):
                for high in range(low, m):
                    first = next(k for k, v in enumerate(residues) if low <= v <= high)
                    assert _first_hit(a, m, low, high) == first, (a, m, low, high)


@settings(deadline=None)
@given(dense_walk_queries())
def test_walk_equals_the_sorted_windows_when_every_period_holds_one(query):
    k = _ShiftKernel(*query)
    assert k.hi - k.lo + 1 >= k.part.slots_y
    assert list(k.walk()) == sorted_windows(k)


@settings(deadline=None)
@given(sparse_walk_queries())
def test_walk_equals_the_sorted_windows_when_periods_hold_none(query):
    k = _ShiftKernel(*query)
    assert k.hi - k.lo + 1 < k.part.slots_y
    assert list(k.walk()) == sorted_windows(k)


@settings(deadline=None)
@given(st.one_of(dense_walk_queries(), sparse_walk_queries(max_long=2**60)))
def test_walk_starts_at_the_scanned_first_window(query):
    first = next(_ShiftKernel(*query).walk(), None)
    scanned = scan_first_window(*query)
    assert first == (None if scanned is None else (scanned.start, scanned.end))


def _compositions(n: int):
    """Every tuple of positive durations that sums to ``n``."""
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            yield tuple(e - s for s, e in zip(bounds, bounds[1:]))


def test_kernel_equals_projection_on_every_pair_of_period_at_most_7():
    # Exact at its scope, not sampled: every pair of sequences with period
    # <= 7 (127 per side), so every component shape, every edge and every
    # residue of R, S <= 7, against one projection sweep per pair.
    specs = [sequence("s", *durs) for n in range(1, 8) for durs in _compositions(n)]
    assert len(specs) == 127
    pairs = 0
    for x in specs:
        for y in specs:
            spans = project(x, y)
            for p in range(x.length):
                for q in range(y.length):
                    windows = spans[p][q]
                    assert [(w.start, w.end) for w in enumerate_coincidences(x, y, p, q)] == windows
                    first = first_coincidence(x, y, p, q)
                    assert (first and (first.start, first.end)) == (windows[0] if windows else None)
                    d = decide(x, y, p, q)
                    assert d.coincides == bool(windows)
                    if d.coincides:
                        # The slot pair whose entries and rules ``check`` reports.
                        k = _ShiftKernel(x, y, p, q)
                        g = k.part.slot_dur
                        assert check_pair(*k.via_entries(d.via), g)
                        # The witness is a projected window, and it meets
                        # the cycle slot where that slot pair aligns.
                        assert (d.witness.start, d.witness.end) in windows
                        slot = align_slot(k.part, *d.via)
                        assert d.witness.start < (slot + 1) * g and slot * g < d.witness.end
                    pairs += 1
    assert pairs == 200_704


def test_windows_are_per_incidence_pair_not_maximal():
    # [0,2) [2,3) [3,4) [4,6) touch: each is one incidence pair's
    # intersection, and touching windows are not merged
    x = sequence("x", 3)
    y = sequence("y", 2)
    expected = (Interval(0, 2), Interval(2, 1), Interval(3, 1), Interval(4, 2))
    assert enumerate_coincidences(x, y, 0, 0) == expected
    assert oracle_decide(x, y, 0, 0).windows == expected
    assert first_coincidence(x, y, 0, 0) == Interval(0, 2)


@settings(deadline=None)
@given(sequence_pairs(max_components=5, max_dur=10))
def test_decide_is_commutative(pair):
    x, y = pair
    for p in range(x.length):
        for q in range(y.length):
            assert decide(x, y, p, q).coincides == decide(y, x, q, p).coincides
            assert set(enumerate_coincidences(x, y, p, q)) == set(
                enumerate_coincidences(y, x, q, p)
            )


@settings(deadline=None)
@given(sequence_pairs(max_components=5, max_dur=10))
def test_flag_guarantees_coincidence_for_every_partner(pair):
    x, y = pair
    g = build_gcd_partition(x, y).slot_dur
    for p in range(x.length):
        if create_network(x, g, p).flag:
            for q in range(y.length):
                assert decide(x, y, p, q).coincides
    for q in range(y.length):
        if create_network(y, g, q).flag:
            for p in range(x.length):
                assert decide(x, y, p, q).coincides


@settings(deadline=None)
@given(sequence_pairs(max_components=5, max_dur=10))
def test_battery_is_sound_on_every_entry_pair(pair):
    x, y = pair
    g = build_gcd_partition(x, y).slot_dur
    for p in range(x.length):
        nx = create_network(x, g, p)
        for q in range(y.length):
            ny = create_network(y, g, q)
            for ex in nx.entries:
                wx = frame_window(x, p, ex.slot, g)
                for ey in ny.entries:
                    if fired_theorems(ex, ey, g):
                        assert frame_overlap(wx, frame_window(y, q, ey.slot, g))


def _slot_shapes(g):
    """Every entry shape on the slot ``[0, g)``: a window that starts before,
    at or inside the slot and ends inside, at or after it, meeting it."""
    return [_entry(lo, end - lo, 0, g) for lo in range(-1, g) for end in range(max(lo, 0) + 1, g + 2)]


# T6.k and C6.k (k <= 6) trade places when the entries are exchanged;
# T6.7-T6.9 read both sides alike.
_EXCHANGED = {f"T6.{k}": f"C6.{k}" for k in range(1, 7)}
_EXCHANGED |= {c: t for t, c in _EXCHANGED.items()} | {f"T6.{k}": f"T6.{k}" for k in (7, 8, 9)}


def test_battery_over_every_entry_shape_pair():
    # Complete, not sampled: every pair of entry shapes of every g <= 16.
    per_rule, gaps, pairs = Counter(), Counter(), 0
    for g in range(1, 17):
        shapes = _slot_shapes(g)
        fired = [[fired_theorems(ex, ey, g) for ey in shapes] for ex in shapes]
        pairs += len(shapes) ** 2
        for i, ex in enumerate(shapes):
            for j, ey in enumerate(shapes):
                rules = fired[i][j]
                overlap = check_pair(ex, ey, g)
                assert overlap or not rules, (g, ex, ey, rules)
                assert {_EXCHANGED[r] for r in rules} == fired[j][i], (g, ex, ey)
                per_rule.update(rules)
                if overlap and not rules:
                    gaps[ex.rel, ey.rel] += 1
    assert pairs == 118_744
    one_sided = {"6.1": 4960, "6.2": 560, "6.3": 4200, "6.4": 4200, "6.5": 4200, "6.6": 4200}
    expected = {side + k: n for k, n in one_sided.items() for side in "TC"}
    assert per_rule == Counter(expected | {"T6.7": 2480, "T6.8": 25_312, "T6.9": 8576})
    # The battery leaves gaps only where one window hangs on the slot's
    # start edge and the other on its end edge.
    ov, ovb = Relation.OVERLAPS, Relation.OVERLAPPED_BY
    st, fin = Relation.STARTS, Relation.FINISHES
    gap_pairs = [(ov, ovb), (ovb, ov), (st, ovb), (ovb, st), (fin, ov), (ov, fin)]
    assert gaps == Counter({rels: 560 for rels in gap_pairs})


@settings(deadline=None)
@given(sequence_pairs(max_components=4, max_dur=8))
def test_consecutive_cycles_repeat_the_relation_matrix(pair):
    x, y = pair
    cycle = cycle_duration(x, y)
    for p in range(x.length):
        for q in range(y.length):
            xs = incidences_of(x, p, 2 * cycle)
            ys = incidences_of(y, q, 2 * cycle)
            half_x, half_y = len(xs) // 2, len(ys) // 2
            first = [
                [allen_relation(ix, iy) for iy in ys[:half_y]] for ix in xs[:half_x]
            ]
            second = [
                [allen_relation(ix, iy) for iy in ys[half_y:]] for ix in xs[half_x:]
            ]
            assert first == second


def test_witness_requires_coincides():
    x = sequence("x", 2, 6)
    y = sequence("y", 4, 4)
    for p in range(2):
        for q in range(2):
            d = decide(x, y, p, q)
            if d.witness is not None or d.via is not None:
                assert d.coincides
            if d.coincides:
                assert d.witness is not None and d.via is not None
