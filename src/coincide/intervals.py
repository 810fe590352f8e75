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

    # Members are singletons compared by identity: hash them by identity, in C.
    __hash__ = object.__hash__


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
