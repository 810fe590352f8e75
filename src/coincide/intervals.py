"""Exact integer interval arithmetic on half-open spans.

An interval ``[start, start + dur)`` covers ``dur`` whole time units.
Half-open endpoints make "meets" a shared boundary with no common unit,
so duration formulas never need a +/-1 correction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class CoincideError(Exception):
    """Base class for all errors raised by this package."""


class DisjointIntervals(CoincideError):
    """The operation needs a shared subinterval but the operands have none."""


class EqualIntervals(CoincideError):
    """Auxiliary intervals are undefined for two equal intervals."""


@dataclass(frozen=True)
class Interval:
    """Half-open span ``[start, start + dur)`` of whole time units.

    ``dur`` must be at least 1: zero-length spans can never witness a
    coincidence (a shared boundary alone does not count), so they are
    rejected at construction.
    """

    start: int
    dur: int

    def __post_init__(self) -> None:
        if self.dur < 1:
            raise ValueError(f"interval duration must be >= 1, got {self.dur}")

    @property
    def end(self) -> int:
        return self.start + self.dur

    @classmethod
    def from_endpoints(cls, start: int, end: int) -> Interval:
        return cls(start, end - start)

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


class Relation(Enum):
    """The thirteen mutually exclusive relations between two intervals."""

    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "met-by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped-by"
    STARTS = "starts"
    STARTED_BY = "started-by"
    DURING = "during"
    CONTAINS = "contains"
    FINISHES = "finishes"
    FINISHED_BY = "finished-by"
    EQUALS = "equals"

    @property
    def inverse(self) -> Relation:
        return _INVERSE[self]

    def __str__(self) -> str:
        return self.value


_INVERSE = {
    Relation.BEFORE: Relation.AFTER,
    Relation.AFTER: Relation.BEFORE,
    Relation.MEETS: Relation.MET_BY,
    Relation.MET_BY: Relation.MEETS,
    Relation.OVERLAPS: Relation.OVERLAPPED_BY,
    Relation.OVERLAPPED_BY: Relation.OVERLAPS,
    Relation.STARTS: Relation.STARTED_BY,
    Relation.STARTED_BY: Relation.STARTS,
    Relation.DURING: Relation.CONTAINS,
    Relation.CONTAINS: Relation.DURING,
    Relation.FINISHES: Relation.FINISHED_BY,
    Relation.FINISHED_BY: Relation.FINISHES,
    Relation.EQUALS: Relation.EQUALS,
}


class Derived(Enum):
    """Named disjunctions of basic relations."""

    DISJOINT = "disjoint"
    WITHIN = "within"
    SUB = "sub"
    SAMEBEGIN = "samebegin"


_DERIVED_SETS: dict[Derived, frozenset[Relation]] = {
    Derived.DISJOINT: frozenset(
        {Relation.BEFORE, Relation.AFTER, Relation.MEETS, Relation.MET_BY}
    ),
    Derived.WITHIN: frozenset(
        {Relation.STARTS, Relation.FINISHES, Relation.DURING}
    ),
    Derived.SUB: frozenset(
        {Relation.STARTS, Relation.FINISHES, Relation.DURING, Relation.EQUALS}
    ),
    Derived.SAMEBEGIN: frozenset(
        {Relation.STARTS, Relation.STARTED_BY, Relation.EQUALS}
    ),
}


def allen_relation(i: Interval, j: Interval) -> Relation:
    """Return the unique basic relation holding between ``i`` and ``j``."""
    if i.end < j.start:
        return Relation.BEFORE
    if j.end < i.start:
        return Relation.AFTER
    if i.end == j.start:
        return Relation.MEETS
    if j.end == i.start:
        return Relation.MET_BY
    if i.start == j.start:
        if i.end == j.end:
            return Relation.EQUALS
        return Relation.STARTS if i.end < j.end else Relation.STARTED_BY
    if i.end == j.end:
        return Relation.FINISHES if i.start > j.start else Relation.FINISHED_BY
    if i.start < j.start:
        return Relation.OVERLAPS if i.end < j.end else Relation.CONTAINS
    return Relation.DURING if i.end < j.end else Relation.OVERLAPPED_BY


def holds(d: Derived, i: Interval, j: Interval) -> bool:
    """True when the basic relation of ``(i, j)`` is in the disjunction ``d``."""
    return allen_relation(i, j) in _DERIVED_SETS[d]


def common(i: Interval, j: Interval) -> Interval:
    """Maximal subinterval shared by ``i`` and ``j``.

    Raises DisjointIntervals when the operands share no whole unit;
    a meeting pair counts as disjoint.
    """
    if holds(Derived.DISJOINT, i, j):
        raise DisjointIntervals(f"{i} and {j} share no subinterval")
    return Interval.from_endpoints(max(i.start, j.start), min(i.end, j.end))


@dataclass(frozen=True)
class AuxEntry:
    """A gap interval flanking an interval pair.

    ``rel_to_first`` / ``rel_to_second`` relate the gap to the first and
    second operand of :func:`aux_intervals`, in that order.  The gap
    always starts or finishes one operand and meets or is met by the
    other (for a non-meeting disjoint pair it meets one and is met by
    the other).
    """

    aux: Interval
    rel_to_first: Relation
    rel_to_second: Relation


def aux_intervals(i: Interval, j: Interval) -> list[AuxEntry]:
    """Maximal gap intervals flanking the pair ``(i, j)``.

    Non-disjoint distinct pairs have up to two: the stretch between the
    two start points and the stretch between the two end points.
    Disjoint non-meeting pairs have exactly one: the gap separating
    them.  Meeting pairs have none; an equal pair is a caller bug.
    """
    if i == j:
        raise EqualIntervals("auxiliary intervals are undefined for equal intervals")
    rel = allen_relation(i, j)
    if rel in (Relation.MEETS, Relation.MET_BY):
        return []
    if rel in (Relation.BEFORE, Relation.AFTER):
        gap = Interval.from_endpoints(min(i.end, j.end), max(i.start, j.start))
        return [AuxEntry(gap, allen_relation(gap, i), allen_relation(gap, j))]
    entries = []
    if i.start != j.start:
        left = Interval.from_endpoints(min(i.start, j.start), max(i.start, j.start))
        entries.append(AuxEntry(left, allen_relation(left, i), allen_relation(left, j)))
    if i.end != j.end:
        right = Interval.from_endpoints(min(i.end, j.end), max(i.end, j.end))
        entries.append(AuxEntry(right, allen_relation(right, i), allen_relation(right, j)))
    return entries
