"""Fixed-duration recurring sequences and their unrolled incidence windows.

A sequence is an ordered list of named components, each lasting a fixed
whole number of time units.  One pass through all components is a period;
the sequence repeats its period forever, and two sequences under
comparison are phase-aligned so that both start a period at instant 0.
All coordinates below are absolute offsets from that shared origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import CoincideError, Interval


class EmptySequence(CoincideError):
    """A sequence needs at least one component."""


class NonPositiveDuration(CoincideError):
    """A component duration was zero or negative."""

    def __init__(self, index: int, dur: int):
        self.index = index
        self.dur = dur
        super().__init__(f"component {index} has non-positive duration {dur}")


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
    period length.
    """

    name: str
    components: tuple[Component, ...]

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def total_dur(self) -> int:
        return sum(c.dur for c in self.components)

    def offsets(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for c in self.components:
            out.append(acc)
            acc += c.dur
        return tuple(out)


def sequence(name: str, *durs: int, component_names: list[str] | None = None) -> SequenceSpec:
    """Convenience constructor; components are named ``c0, c1, ...`` by default."""
    names = component_names or [f"c{i}" for i in range(len(durs))]
    return validate(SequenceSpec(name, tuple(Component(n, d) for n, d in zip(names, durs))))


def validate(spec: SequenceSpec) -> SequenceSpec:
    """Return ``spec`` unchanged if it is well formed."""
    if spec.length == 0:
        raise EmptySequence(f"sequence {spec.name!r} has no components")
    for idx, comp in enumerate(spec.components):
        if comp.dur < 1:
            raise NonPositiveDuration(idx, comp.dur)
    return spec


def _check_index(spec: SequenceSpec, p: int) -> None:
    if not 0 <= p < spec.length:
        raise IndexOutOfRange(
            f"component index {p} out of range for sequence {spec.name!r} "
            f"with {spec.length} components (valid: 0..{spec.length - 1})"
        )


def component_window(spec: SequenceSpec, p: int) -> Interval:
    """Window of component ``p`` within one period, period-local coordinates."""
    _check_index(spec, p)
    return Interval(spec.offsets()[p], spec.components[p].dur)


def unroll(spec: SequenceSpec, n: int) -> list[Interval]:
    """Component windows of ``n`` consecutive periods, tiling ``[0, n * D)``."""
    if n < 1:
        raise ValueError(f"period count must be >= 1, got {n}")
    validate(spec)
    period = spec.total_dur
    out = []
    for i in range(n):
        base = i * period
        for off, comp in zip(spec.offsets(), spec.components):
            out.append(Interval(base + off, comp.dur))
    return out


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
    return math.lcm(validate(x).total_dur, validate(y).total_dur)


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
