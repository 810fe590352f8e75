from __future__ import annotations

import itertools

import pytest
from hypothesis import given

from coincide import (
    AuxEntry,
    Derived,
    DisjointIntervals,
    EqualIntervals,
    Interval,
    Relation,
    allen_relation,
    aux_intervals,
    common,
    holds,
)
from .conftest import intervals
from .refimpl import holding_relations


def iv(start: int, end: int) -> Interval:
    return Interval.from_endpoints(start, end)


def test_interval_rejects_non_positive_duration():
    with pytest.raises(ValueError):
        Interval(0, 0)
    with pytest.raises(ValueError):
        Interval(3, -1)


def test_interval_end_and_str():
    assert iv(2, 5).end == 5
    assert str(iv(2, 5)) == "[2, 5)"


@pytest.mark.parametrize(
    "i, j, expected",
    [
        (iv(0, 3), iv(2, 4), Relation.OVERLAPS),
        (iv(0, 2), iv(2, 5), Relation.MEETS),
        (iv(5, 8), iv(0, 56), Relation.DURING),
        (iv(0, 2), iv(3, 5), Relation.BEFORE),
        (iv(3, 5), iv(0, 2), Relation.AFTER),
        (iv(2, 5), iv(0, 2), Relation.MET_BY),
        (iv(2, 4), iv(0, 3), Relation.OVERLAPPED_BY),
        (iv(0, 2), iv(0, 5), Relation.STARTS),
        (iv(0, 5), iv(0, 2), Relation.STARTED_BY),
        (iv(0, 5), iv(1, 3), Relation.CONTAINS),
        (iv(3, 5), iv(0, 5), Relation.FINISHES),
        (iv(0, 5), iv(3, 5), Relation.FINISHED_BY),
        (iv(1, 4), iv(1, 4), Relation.EQUALS),
    ],
)
def test_allen_relation_cases(i, j, expected):
    assert allen_relation(i, j) is expected


@given(intervals(), intervals())
def test_exactly_one_relation_holds(i, j):
    held = holding_relations(i, j)
    assert len(held) == 1
    assert held[0] is allen_relation(i, j)


@given(intervals(), intervals())
def test_relation_inverse(i, j):
    assert allen_relation(i, j).inverse is allen_relation(j, i)


def test_inverse_is_involution():
    for rel in Relation:
        assert rel.inverse.inverse is rel
    assert Relation.EQUALS.inverse is Relation.EQUALS


@pytest.mark.parametrize(
    "d, i, j, expected",
    [
        (Derived.DISJOINT, iv(0, 2), iv(2, 5), True),
        (Derived.WITHIN, iv(0, 1), iv(0, 3), True),
        (Derived.SUB, iv(0, 3), iv(0, 3), True),
        (Derived.WITHIN, iv(0, 3), iv(0, 3), False),
        (Derived.SAMEBEGIN, iv(0, 2), iv(0, 5), True),
        (Derived.SAMEBEGIN, iv(1, 2), iv(0, 5), False),
        (Derived.DISJOINT, iv(0, 3), iv(2, 4), False),
    ],
)
def test_holds(d, i, j, expected):
    assert holds(d, i, j) is expected


def test_common_examples():
    assert common(iv(0, 3), iv(2, 4)) == iv(2, 3)
    assert common(iv(0, 4), iv(1, 2)) == iv(1, 2)
    with pytest.raises(DisjointIntervals):
        common(iv(0, 2), iv(2, 4))


@given(intervals(), intervals())
def test_common_symmetry(i, j):
    if holds(Derived.DISJOINT, i, j):
        return
    assert common(i, j) == common(j, i)


def _all_intervals(max_end: int) -> list[Interval]:
    return [iv(s, e) for s in range(max_end) for e in range(s + 1, max_end + 1)]


def test_common_maximality_exhaustive():
    # No strict super-interval of the common part fits inside both operands.
    universe = _all_intervals(8)
    for i, j in itertools.product(universe, repeat=2):
        if holds(Derived.DISJOINT, i, j):
            continue
        m = common(i, j)
        assert holds(Derived.SUB, m, i) and holds(Derived.SUB, m, j)
        for m1 in universe:
            if m1 != m and holds(Derived.SUB, m, m1):
                assert not (holds(Derived.SUB, m1, i) and holds(Derived.SUB, m1, j))


def test_aux_intervals_examples():
    assert aux_intervals(iv(0, 4), iv(2, 3)) == [
        AuxEntry(iv(0, 2), Relation.STARTS, Relation.MEETS),
        AuxEntry(iv(3, 4), Relation.FINISHES, Relation.MET_BY),
    ]
    assert aux_intervals(iv(0, 2), iv(2, 5)) == []
    assert aux_intervals(iv(0, 1), iv(3, 5)) == [
        AuxEntry(iv(1, 3), Relation.MET_BY, Relation.MEETS)
    ]
    with pytest.raises(EqualIntervals):
        aux_intervals(iv(1, 4), iv(1, 4))


@given(intervals(16, 16), intervals(16, 16))
def test_aux_entries_start_or_finish_one_and_touch_the_other(i, j):
    if i == j:
        return
    for entry in aux_intervals(i, j):
        anchored = {entry.rel_to_first, entry.rel_to_second}
        if holds(Derived.DISJOINT, i, j):
            assert anchored <= {Relation.MEETS, Relation.MET_BY}
        else:
            assert len(
                anchored & {Relation.STARTS, Relation.FINISHES}
            ) == 1 and len(anchored & {Relation.MEETS, Relation.MET_BY}) == 1


def test_aux_completeness_exhaustive():
    # Each operand is exactly its share of the common part plus the gaps
    # that sit inside it.
    for i, j in itertools.product(_all_intervals(16), repeat=2):
        if i == j or holds(Derived.DISJOINT, i, j):
            continue
        entries = aux_intervals(i, j)
        c = common(i, j)
        aux_in_i = sum(e.aux.dur for e in entries if holds(Derived.SUB, e.aux, i))
        aux_in_j = sum(e.aux.dur for e in entries if holds(Derived.SUB, e.aux, j))
        assert i.dur == c.dur + aux_in_i
        assert j.dur == c.dur + aux_in_j
