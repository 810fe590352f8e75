from __future__ import annotations

import pytest
from hypothesis import given

from coincide import Interval, Relation, allen_relation
from .conftest import intervals
from .refimpl import holding_relations


def iv(start: int, end: int) -> Interval:
    return Interval.from_endpoints(start, end)


def test_interval_rejects_non_positive_duration():
    with pytest.raises(ValueError):
        Interval(0, 0)
    with pytest.raises(ValueError):
        Interval(3, -1)


@pytest.mark.parametrize(
    "start, dur", [(0.5, 2), (True, 1), (0, 1.5), (0, True), (False, 2), (2.0, 1), ("0", 1), (0, None)]
)
def test_interval_rejects_non_int_endpoints(start, dur):
    with pytest.raises(ValueError, match="must be integers"):
        Interval(start, dur)


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
    # Name each case by its relation's value ("met-by"), not its repr.
    ids=lambda v: v.value if isinstance(v, Relation) else None,
)
def test_allen_relation_cases(i, j, expected):
    assert allen_relation(i, j) is expected


@given(intervals(), intervals())
def test_exactly_one_relation_holds(i, j):
    held = holding_relations(i, j)
    assert len(held) == 1
    assert held[0] is allen_relation(i, j)
