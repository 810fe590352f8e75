from __future__ import annotations

import math
import time

import pytest
from hypothesis import given

from coincide import (
    BadGcd,
    IndexOutOfRange,
    Relation,
    build_gcd_partition,
    create_network,
    network_decide,
    network_entry,
    sequence,
)
from coincide.coincidence import SLOT_SUB_COMPONENT, NetworkEntry
from .conftest import sequence_pairs, sequence_specs
from .refimpl import cursor_network, network_from_period

DISJOINT_RELS = {Relation.BEFORE, Relation.AFTER, Relation.MEETS, Relation.MET_BY}


def test_weekday_network(weekday):
    net = create_network(weekday, 1, 2)
    assert net.entries == (NetworkEntry(2, Relation.EQUALS, 0, 0, 1),)
    assert net.flag is True


def test_machine_rest_network(machine):
    net = create_network(machine, 1, 1)
    assert [e.slot for e in net.entries] == [5, 6, 7]
    assert [e.rel for e in net.entries] == [
        Relation.STARTED_BY,
        Relation.CONTAINS,
        Relation.FINISHED_BY,
    ]
    assert net.flag is True


def test_production_line_network(pl1):
    net = create_network(pl1, 4, 0)
    assert net.entries == (NetworkEntry(0, Relation.STARTS, 0, 1, 3),)
    assert net.flag is False


def test_create_network_errors(machine):
    with pytest.raises(IndexOutOfRange):
        create_network(machine, 1, 2)
    with pytest.raises(BadGcd):
        create_network(machine, 3, 0)
    with pytest.raises(BadGcd):
        create_network(machine, 0, 0)


@pytest.mark.parametrize("g", [3, 0, -2, 2.0, True, "2"])
def test_network_and_entry_share_the_slot_size_check(pl1, g):
    # PL-1 has period 8: each g is not an int slot size dividing it.
    with pytest.raises(BadGcd):
        create_network(pl1, g, 0)
    with pytest.raises(BadGcd):
        network_entry(pl1, g, 0, 0)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@given(sequence_specs(max_components=6, max_dur=10))
def test_matches_cursor_walk(spec):
    for g in _divisors(spec.total_dur):
        for p in range(spec.length):
            net = create_network(spec, g, p)
            entries, flag = cursor_network(spec, g, p)
            assert list(net.entries) == entries
            assert net.flag == flag


def test_matches_cursor_walk_on_every_small_window():
    # Complete on its range, not sampled: every slot size g <= 12, start
    # a < 3g and duration d <= 4g, padded before and after so that the
    # period is a multiple of g.  A component inside its slot shares all
    # its units with it, which lets the rule battery read durations off
    # entries.
    inside = (Relation.STARTS, Relation.FINISHES, Relation.DURING)
    for g in range(1, 13):
        for a in range(3 * g):
            for d in range(1, 4 * g + 1):
                durs = ([a] if a else []) + [d] + ([-(a + d) % g] if (a + d) % g else [])
                spec = sequence("s", *durs)
                p = 1 if a else 0
                net = create_network(spec, g, p)
                assert len(net.runs) <= 3
                assert (list(net.entries), net.flag) == cursor_network(spec, g, p)
                assert all(e.common_dur == d for e in net.entries if e.rel in inside)


@given(sequence_specs(max_components=6, max_dur=10))
def test_matches_rebuild_from_any_period(spec):
    # entry data is identical no matter which period it is read from
    for g in _divisors(spec.total_dur):
        for p in range(spec.length):
            net = create_network(spec, g, p)
            for period in (0, 1, 2):
                entries, flag = network_from_period(spec, g, p, period)
                assert list(net.entries) == entries
                assert net.flag == flag


@given(sequence_pairs())
def test_entry_invariants(pair):
    x, y = pair
    part = build_gcd_partition(x, y)
    g = part.slot_dur
    for spec in (x, y):
        for p in range(spec.length):
            net = create_network(spec, g, p)
            d = spec.durs[p]
            a = spec.offsets()[p]
            assert 1 <= len(net.entries) <= math.ceil(d / g) + 1
            assert [e.slot for e in net.entries] == list(
                range(a // g, (a + d - 1) // g + 1)
            )
            for e in net.entries:
                assert e.rel not in DISJOINT_RELS
                assert 0 <= e.left_gap < g
                assert 0 <= e.right_gap < g
                assert e.common_dur >= 1
            assert net.flag == any(e.rel in SLOT_SUB_COMPONENT for e in net.entries)


@given(sequence_pairs())
def test_no_flag_means_at_most_two_entries(pair):
    x, y = pair
    g = build_gcd_partition(x, y).slot_dur
    for spec in (x, y):
        for p in range(spec.length):
            net = create_network(spec, g, p)
            if not net.flag:
                assert len(net.entries) <= 2


def test_unit_grid_covers_every_slot_of_long_component():
    spec = sequence("s", 4, 9)
    net = create_network(spec, 1, 1)
    assert len(net.entries) == 9
    assert all(e.rel in SLOT_SUB_COMPONENT for e in net.entries[:])
    assert net.flag


def test_billion_unit_network_is_three_runs_in_constant_time():
    # g = 1: a per-slot build or walk here would take hours.
    d = 10**9
    x, y = sequence("x", d, 1), sequence("y", d, 2)
    t0 = time.perf_counter()
    net = create_network(x, 1, 0)
    verdict, steps = network_decide(x, y, 0, 0)
    elapsed = time.perf_counter() - t0
    assert net.runs == (
        (NetworkEntry(0, Relation.STARTED_BY, 0, 0, 1), 1),
        (NetworkEntry(1, Relation.CONTAINS, 0, 0, 1), d - 2),
        (NetworkEntry(d - 1, Relation.FINISHED_BY, 0, 0, 1), 1),
    )
    assert net.flag
    assert verdict is True
    # The cursor walk is still charged in full: no components or slots
    # skipped, one step per entry emitted.
    assert steps == d
    assert elapsed < 0.01
