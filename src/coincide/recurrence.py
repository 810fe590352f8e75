"""Fixed-duration recurring sequences and their incidence windows.

A sequence is an ordered list of named components, each lasting a fixed
whole number of time units.  One pass through all components is a period;
the sequence repeats its period forever, and two sequences under
comparison are phase-aligned so that both start a period at instant 0.
All coordinates below are absolute offsets from that shared origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .intervals import CoincideError, Interval


class EmptySequence(CoincideError):
    """A sequence needs at least one component."""


class NonPositiveDuration(CoincideError):
    """A component duration was not a positive integer."""

    def __init__(self, index: int, dur: object):
        self.index = index
        self.dur = dur
        super().__init__(f"component {index}: duration must be a positive integer, got {dur!r}")


class IndexOutOfRange(CoincideError):
    """A component index fell outside the sequence bounds."""


class BadHorizon(CoincideError):
    """The requested horizon is not a positive multiple of the period."""


class ComponentLookupError(CoincideError):
    """A component name did not resolve to exactly one index."""


@dataclass(frozen=True)
class Component:
    name: str
    dur: int


@dataclass(frozen=True)
class SequenceSpec:
    """A recurring sequence of fixed-duration components.

    Component indices are 0-based throughout.  ``offsets()[p]`` is the
    start of component ``p`` within a period; ``total_dur`` is the
    period length.  Both are computed once, when the spec is built, and
    building one checks it: at least one component, and every duration a
    positive integer (``bool`` is not accepted as one).
    """

    name: str
    components: tuple[Component, ...]
    total_dur: int = field(init=False, compare=False, repr=False)
    _offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise EmptySequence(f"sequence {self.name!r} has no components")
        for idx, comp in enumerate(self.components):
            dur = comp.dur
            if not isinstance(dur, int) or isinstance(dur, bool) or dur < 1:
                raise NonPositiveDuration(idx, dur)
        ends = tuple(accumulate(c.dur for c in self.components))
        object.__setattr__(self, "total_dur", ends[-1])
        object.__setattr__(self, "_offsets", (0,) + ends[:-1])

    @property
    def length(self) -> int:
        return len(self.components)

    def offsets(self) -> tuple[int, ...]:
        return self._offsets


def sequence(name: str, *durs: int, component_names: list[str] | None = None) -> SequenceSpec:
    """Convenience constructor; components are named ``c0, c1, ...`` by default."""
    names = component_names or [f"c{i}" for i in range(len(durs))]
    return SequenceSpec(name, tuple(Component(n, d) for n, d in zip(names, durs)))


def _check_index(spec: SequenceSpec, p: int) -> None:
    if not 0 <= p < spec.length:
        raise IndexOutOfRange(
            f"component index {p} out of range for sequence {spec.name!r} "
            f"with {spec.length} components (valid: 0..{spec.length - 1})"
        )


def incidences_of(spec: SequenceSpec, p: int, horizon: int) -> list[Interval]:
    """All windows of component ``p`` within ``[0, horizon)``.

    ``horizon`` must be a positive multiple of the period, so the list
    holds exactly ``horizon // D`` windows, one per period, ascending.
    """
    _check_index(spec, p)
    period = spec.total_dur
    if horizon < 1 or horizon % period != 0:
        raise BadHorizon(f"horizon {horizon} is not a positive multiple of {period}")
    start = spec.offsets()[p]
    d = spec.components[p].dur
    return [Interval(start + i * period, d) for i in range(horizon // period)]


def cycle_duration(x: SequenceSpec, y: SequenceSpec) -> int:
    """Length of the joint repeat of two sequences: lcm of their periods."""
    return math.lcm(x.total_dur, y.total_dur)


def resolve_component(spec: SequenceSpec, key: int | str) -> int:
    """Map a component index or name to an index.

    Names must be unique within the sequence to resolve; indices are
    bounds-checked.  Booleans are rejected rather than read as 0 or 1.
    """
    if isinstance(key, bool):
        raise ComponentLookupError(f"component key must be an index or a name, got {key!r}")
    if isinstance(key, int):
        _check_index(spec, key)
        return key
    matches = [i for i, c in enumerate(spec.components) if c.name == key]
    if not matches:
        raise ComponentLookupError(f"no component named {key!r} in sequence {spec.name!r}")
    if len(matches) > 1:
        raise ComponentLookupError(
            f"component name {key!r} is ambiguous in sequence {spec.name!r} "
            f"(indices {matches})"
        )
    return matches[0]
