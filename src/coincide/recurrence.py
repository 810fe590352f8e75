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
class SequenceSpec:
    """A recurring sequence of fixed-duration components, held as columns.

    Component ``i`` (0-based) lasts ``durs[i]`` units and is named
    ``names[i]``.  ``offsets()[p]`` starts component ``p`` within a period
    of ``total_dur`` units; both are computed once, when the spec is built.
    Building one checks it: ``name`` is a string, and ``durs`` and
    ``names`` are tuples of one non-zero length, of strings and of
    positive ints (not bools).
    """

    name: str
    durs: tuple[int, ...]
    names: tuple[str, ...]
    total_dur: int = field(init=False, compare=False, repr=False)
    _offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise CoincideError(f"sequence name must be a string, got {self.name!r}")
        durs, names = self.durs, self.names
        if not isinstance(durs, tuple) or not isinstance(names, tuple):
            kinds = f"{type(durs).__name__} and {type(names).__name__}"
            raise CoincideError(f"sequence {self.name!r}: durs and names must be tuples, got {kinds}")
        if not durs:
            raise EmptySequence(f"sequence {self.name!r} has no components")
        if len(names) != len(durs):
            raise CoincideError(f"sequence {self.name!r}: {len(durs)} durations but {len(names)} names")
        # One whole-column check each; a loop runs only to name the first offender.
        try:
            "".join(names)  # a TypeError unless every name is a str
        except TypeError:
            idx, bad = next((i, n) for i, n in enumerate(names) if not isinstance(n, str))
            msg = f"sequence {self.name!r}: component {idx}: name must be a string, got {bad!r}"
            raise CoincideError(msg) from None
        if set(map(type, durs)) != {int} or min(durs) < 1:
            for idx, dur in enumerate(durs):
                if not isinstance(dur, int) or isinstance(dur, bool) or dur < 1:
                    raise NonPositiveDuration(idx, dur)
        ends = tuple(accumulate(durs))
        object.__setattr__(self, "total_dur", ends[-1])
        object.__setattr__(self, "_offsets", (0,) + ends[:-1])

    @property
    def length(self) -> int:
        return len(self.durs)

    def offsets(self) -> tuple[int, ...]:
        return self._offsets


def sequence(name: str, *durs: int, component_names: list[str] | None = None) -> SequenceSpec:
    """Convenience constructor: one name per duration, ``c0, c1, ...`` by default.

    ``component_names`` is a list or tuple; a string or a dict is rejected
    rather than split into characters or read for its keys.
    """
    if component_names is None:
        component_names = [f"c{i}" for i in range(len(durs))]
    elif not isinstance(component_names, (list, tuple)):
        kind = type(component_names).__name__
        raise CoincideError(f"sequence {name!r}: component_names must be a list or tuple, got {kind}")
    return SequenceSpec(name, durs, tuple(component_names))


def _check_index(spec: SequenceSpec, p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise IndexOutOfRange(f"component index must be an integer, got {p!r}")
    if not 0 <= p < spec.length:
        raise IndexOutOfRange(
            f"component index {p} out of range for sequence {spec.name!r} "
            f"with {spec.length} components (valid: 0..{spec.length - 1})"
        )


def incidences_of(spec: SequenceSpec, p: int, horizon: int) -> list[Interval]:
    """All windows of component ``p`` within ``[0, horizon)``.

    ``horizon`` must be a positive int (not a bool) multiple of the
    period, so the list holds exactly ``horizon // D`` windows, one per
    period, ascending.
    """
    _check_index(spec, p)
    period = spec.total_dur
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise BadHorizon(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1 or horizon % period != 0:
        raise BadHorizon(f"horizon {horizon} is not a positive multiple of {period}")
    start, d = spec.offsets()[p], spec.durs[p]
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
    matches = [i for i, n in enumerate(spec.names) if n == key]
    if not matches:
        raise ComponentLookupError(f"no component named {key!r} in sequence {spec.name!r}")
    if len(matches) > 1:
        raise ComponentLookupError(
            f"component name {key!r} is ambiguous in sequence {spec.name!r} "
            f"(indices {matches})"
        )
    return matches[0]
