from __future__ import annotations

import pytest
from hypothesis import given, settings

from coincide import (
    IndexOutOfRange,
    Interval,
    allen_relation,
    enumerate_coincidences,
    cycle_duration,
    oracle_decide,
    sequence,
)
from coincide.intervals import Relation
from coincide.oracle import project
from .conftest import sequence_pairs
from .refimpl import naive_windows


def test_factory_report(weekday, machine):
    rep = oracle_decide(weekday, machine, 2, 1)
    assert rep.windows == (Interval(23, 1), Interval(30, 1), Interval(37, 1))
    assert rep.comparisons == 56
    assert rep.decision.coincides is True
    assert rep.decision.witness == Interval(23, 1)


def test_modified_factory_report(weekday, machine_short_rest):
    rep = oracle_decide(weekday, machine_short_rest, 2, 1)
    assert rep.windows == ()
    assert rep.decision.coincides is False
    assert rep.decision.witness is None


def test_identical_singletons_coincide_everywhere():
    x = sequence("x", 5)
    y = sequence("y", 5)
    rep = oracle_decide(x, y, 0, 0)
    assert rep.windows == (Interval(0, 5),)
    assert rep.comparisons == 1


def test_enumerate_production_line(pl1, pl2):
    assert enumerate_coincidences(pl1, pl2, 0, 1) == (Interval(2, 1),)
    assert enumerate_coincidences(pl1, pl2, 1, 1) == (Interval(3, 1),)


def test_index_errors(weekday, machine):
    with pytest.raises(IndexOutOfRange):
        oracle_decide(weekday, machine, 9, 0)


def test_determinism(weekday, machine):
    assert oracle_decide(weekday, machine, 2, 1) == oracle_decide(weekday, machine, 2, 1)


@settings(deadline=None)
@given(sequence_pairs(max_components=6, max_dur=12))
def test_sweep_matches_naive_double_loop(pair):
    x, y = pair
    for p in range(x.length):
        for q in range(y.length):
            assert list(oracle_decide(x, y, p, q).windows) == naive_windows(x, y, p, q)


@settings(deadline=None)
@given(sequence_pairs())
def test_projection_of_every_pair_is_its_oracle_spans(pair):
    x, y = pair
    spans = project(x, y)
    assert len(spans) == x.length
    for p in range(x.length):
        assert len(spans[p]) == y.length
        for q in range(y.length):
            assert spans[p][q] == list(oracle_decide(x, y, p, q).spans)


@settings(deadline=None)
@given(sequence_pairs())
def test_projection_pieces_tile_the_cycle(pair):
    # Both sides tile the cycle, so every unit lies in exactly one piece of
    # exactly one pair: in order the pieces run from 0 to the cycle end
    # without a gap or an overlap.
    x, y = pair
    pieces = sorted(w for row in project(x, y) for windows in row for w in windows)
    assert sum(e - s for s, e in pieces) == cycle_duration(x, y)
    assert [s for s, _ in pieces] == [0] + [e for _, e in pieces[:-1]]
    assert pieces[-1][1] == cycle_duration(x, y)


def test_projection_of_the_factory(weekday, machine):
    # Mondays start at 0, 7, ..., 49; the machine works [8k, 8k + 5).
    spans = project(weekday, machine)
    assert spans[2][1] == [(23, 24), (30, 31), (37, 38)]
    assert spans[0][0] == [(0, 1), (28, 29), (35, 36), (42, 43), (49, 50)]


@settings(deadline=None)
@given(sequence_pairs())
def test_comparisons_formula(pair):
    x, y = pair
    rep = oracle_decide(x, y, 0, 0)
    cycle = cycle_duration(x, y)
    assert rep.comparisons == (cycle // x.total_dur) * (cycle // y.total_dur)


@settings(deadline=None)
@given(sequence_pairs(max_components=4, max_dur=8))
def test_windows_sorted_positive_nonoverlapping(pair):
    x, y = pair
    for p in range(x.length):
        for q in range(y.length):
            windows = oracle_decide(x, y, p, q).windows
            assert all(w.dur >= 1 for w in windows)
            for a, b in zip(windows, windows[1:]):
                assert a.end <= b.start


def test_subintervals_of_windows_are_coincidences(weekday, machine):
    # every strict subinterval of a maximal window is itself a (shorter)
    # shared window: it sits inside some member of the enumeration
    windows = enumerate_coincidences(weekday, machine, 2, 1)
    big = sequence("x", 2, 6)
    small = sequence("y", 4, 4)
    windows += enumerate_coincidences(big, small, 1, 0)
    for w in windows:
        for s in range(w.start, w.end):
            for e in range(s + 1, w.end + 1):
                sub = Interval.from_endpoints(s, e)
                if sub == w:
                    continue
                assert any(win.start <= sub.start and sub.end <= win.end for win in windows)
