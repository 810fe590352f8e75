from __future__ import annotations

import math

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from coincide import Interval, SequenceSpec, sequence


def intervals(max_start: int = 32, max_dur: int = 32):
    return st.builds(
        Interval,
        start=st.integers(min_value=0, max_value=max_start),
        dur=st.integers(min_value=1, max_value=max_dur),
    )


def sequence_specs(name: str = "s", max_components: int = 8, max_dur: int = 16):
    comps = st.lists(
        st.integers(min_value=1, max_value=max_dur),
        min_size=1,
        max_size=max_components,
    )
    return comps.map(lambda durs: sequence(name, *durs))


def sequence_pairs(max_components: int = 8, max_dur: int = 16):
    return st.tuples(
        sequence_specs("x", max_components, max_dur),
        sequence_specs("y", max_components, max_dur),
    )


@st.composite
def _split(draw, name: str, total: int, max_components: int):
    k = draw(st.integers(min_value=1, max_value=min(total, max_components)))
    cuts = draw(st.sets(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1)) if k > 1 else ()
    bounds = [0, *sorted(cuts), total]
    return sequence(name, *(e - s for s, e in zip(bounds, bounds[1:])))


@st.composite
def large_sequence_pairs(draw, max_g: int = 2**58, max_slots: int = 12, max_components: int = 5):
    """Pairs with periods g*R and g*S: durations and periods below 2^62, yet
    at most R + S incidences per cycle, so projection stays cheap."""
    g = draw(st.integers(min_value=1, max_value=max_g))
    big_r = draw(st.integers(min_value=1, max_value=max_slots))
    big_s = draw(st.integers(min_value=1, max_value=max_slots))
    return (
        draw(_split("x", g * big_r, max_components)),
        draw(_split("y", g * big_s, max_components)),
    )


@st.composite
def many_window_queries(draw, max_dur: int = 30_000, max_components: int = 3):
    """Queries ``(x, y, p, q)`` on a slot of at most 3 units whose queried
    components last up to ``max_dur`` units: up to ``2 * max_dur`` windows
    per cycle, so the earliest one can lie far from the origin."""
    x = draw(sequence_specs("x", max_components, max_dur))
    y = draw(sequence_specs("y", max_components, max_dur))
    assume(math.gcd(x.total_dur, y.total_dur) <= 3)
    return x, y, draw(st.integers(0, x.length - 1)), draw(st.integers(0, y.length - 1))


@st.composite
def dense_walk_queries(draw):
    """Queries ``(x, y, p, q)`` whose x component is at least one y period
    long, so each of the S x periods of a cycle holds a window (W >= S)."""
    y = draw(sequence_specs("y", 4, 8))
    others = draw(st.lists(st.integers(1, 40), max_size=3))
    p = draw(st.integers(0, len(others)))
    dx = draw(st.integers(y.total_dur, 8 * y.total_dur))
    x = sequence("x", *others[:p], dx, *others[p:])
    return x, y, p, draw(st.integers(0, y.length - 1))


@st.composite
def sparse_walk_queries(draw, max_long: int = 10**12):
    """Queries on a short component beside one or two long ones on each
    side: periods of ``max_long / 10`` to ``2 * max_long`` units, while
    the queried components are at most 64 slots of ``g <= 8`` units long,
    so a cycle holds at most 128 windows, far fewer than its S x periods,
    and S > ``max_long / 1000``."""
    g = draw(st.integers(1, 8))

    def side(name):
        short = draw(st.integers(1, 64))
        longs = draw(st.lists(st.integers(max_long // (10 * g), max_long // g), min_size=1, max_size=2))
        at = draw(st.integers(0, len(longs)))
        return sequence(name, *(g * d for d in (*longs[:at], short, *longs[at:]))), at

    (x, p), (y, q) = side("x"), side("y")
    assume(y.total_dur // math.gcd(x.total_dur, y.total_dur) > max_long // 1000)
    return x, y, p, q


@pytest.fixture
def weekday() -> SequenceSpec:
    return sequence(
        "weekday",
        *([1] * 7),
        component_names=["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"],
    )


@pytest.fixture
def machine() -> SequenceSpec:
    return sequence("machine", 5, 3, component_names=["Working", "Rest"])


@pytest.fixture
def machine_short_rest() -> SequenceSpec:
    return sequence("machine", 5, 2, component_names=["Working", "Rest"])


@pytest.fixture
def pl1() -> SequenceSpec:
    return sequence("PL-1", 3, 3, 2, component_names=["P1", "P2", "P3"])


@pytest.fixture
def pl2() -> SequenceSpec:
    return sequence("PL-2", 2, 2, component_names=["P4", "P5"])
