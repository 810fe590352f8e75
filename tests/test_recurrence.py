from __future__ import annotations

import pytest
from hypothesis import given

from coincide import (
    BadHorizon,
    CoincideError,
    Component,
    ComponentLookupError,
    EmptySequence,
    IndexOutOfRange,
    Interval,
    NonPositiveDuration,
    SequenceSpec,
    create_network,
    cycle_duration,
    decide,
    incidences_of,
    oracle_decide,
    resolve_component,
    sequence,
)
from .conftest import sequence_specs


def test_validate_ok():
    spec = SequenceSpec("machine", (Component("Working", 5), Component("Rest", 3)))
    assert spec.total_dur == 8
    assert spec.length == 2
    assert spec.offsets() == (0, 5)


def test_validate_empty():
    with pytest.raises(EmptySequence):
        SequenceSpec("empty", ())


def test_validate_non_positive_duration():
    with pytest.raises(NonPositiveDuration) as exc:
        SequenceSpec("bad", (Component("A", 0),))
    assert exc.value.index == 0


@pytest.mark.parametrize("dur", [2.5, True, "3"])
def test_rejects_non_integer_duration(dur):
    # Unchecked, 2.5 makes a 3.5-unit period that fails later with a bare
    # TypeError, and True passes as a 1-unit duration.
    with pytest.raises(CoincideError, match="component 0: duration must be a positive integer"):
        sequence("x", dur, 1)


@pytest.mark.parametrize(
    "components", [(1, 2), [Component("a", 1)]], ids=["ints", "list"]
)
def test_rejects_components_that_are_not_a_tuple_of_component(components):
    # (1, 2) used to fail with a bare AttributeError; a list was accepted
    # and left the spec unhashable
    with pytest.raises(CoincideError):
        SequenceSpec("s", components)


def test_derived_fields_leave_equality_hash_and_repr_alone(machine):
    twin = SequenceSpec("machine", machine.components)
    assert twin == machine and hash(twin) == hash(machine)
    assert repr(twin) == f"SequenceSpec(name='machine', components={machine.components!r})"


def test_incidences_examples(machine, weekday):
    assert incidences_of(machine, 1, 16) == [Interval(5, 3), Interval(13, 3)]
    wed = incidences_of(weekday, 2, 56)
    assert [w.start for w in wed] == [2, 9, 16, 23, 30, 37, 44, 51]
    pl2 = sequence("PL-2", 2, 2)
    assert incidences_of(pl2, 1, 8) == [Interval(2, 2), Interval(6, 2)]


def test_incidences_errors(machine):
    with pytest.raises(IndexOutOfRange):
        incidences_of(machine, 2, 16)
    with pytest.raises(BadHorizon):
        incidences_of(machine, 1, 12)
    with pytest.raises(BadHorizon):
        incidences_of(machine, 1, 0)


def test_cycle_duration_examples(machine, weekday):
    assert cycle_duration(weekday, machine) == 56
    assert cycle_duration(sequence("a", 8), sequence("b", 4)) == 8
    assert cycle_duration(sequence("a", 7), sequence("b", 3, 4)) == 7


@given(sequence_specs(max_components=5, max_dur=8))
def test_distinct_components_mutually_exclusive(spec):
    # Within an unrolled span, windows of different components never
    # share a unit (a shared boundary is fine).
    horizon = 2 * spec.total_dur
    all_windows = [
        (p, w) for p in range(spec.length) for w in incidences_of(spec, p, horizon)
    ]
    for (p1, w1) in all_windows:
        for (p2, w2) in all_windows:
            if p1 != p2:
                assert w1.end <= w2.start or w2.end <= w1.start


@given(sequence_specs())
def test_incidences_have_fixed_duration_and_spacing(spec):
    horizon = 3 * spec.total_dur
    for p in range(spec.length):
        windows = incidences_of(spec, p, horizon)
        assert len(windows) == 3
        assert len({w.dur for w in windows}) == 1
        assert all(
            b.start - a.start == spec.total_dur for a, b in zip(windows, windows[1:])
        )


@given(sequence_specs())
def test_first_incidence_of_first_component_starts_at_zero(spec):
    assert incidences_of(spec, 0, spec.total_dur)[0].start == 0


def test_resolve_component(machine):
    assert resolve_component(machine, 1) == 1
    assert resolve_component(machine, "Rest") == 1
    with pytest.raises(IndexOutOfRange):
        resolve_component(machine, 5)
    with pytest.raises(ComponentLookupError):
        resolve_component(machine, "Holiday")
    dup = sequence("dup", 1, 2, component_names=["A", "A"])
    with pytest.raises(ComponentLookupError):
        resolve_component(dup, "A")


def test_resolve_component_rejects_bool(machine):
    # bool is a subclass of int, so True would otherwise resolve to index 1
    for key in (True, False):
        with pytest.raises(ComponentLookupError):
            resolve_component(machine, key)


@pytest.mark.parametrize("index", [True, 0.5])
@pytest.mark.parametrize(
    "query",
    [
        lambda x, y, p: decide(x, y, p, 0),
        lambda x, y, p: oracle_decide(x, y, p, 0),
        lambda x, y, p: create_network(x, 1, p),
    ],
    ids=["decide", "oracle_decide", "create_network"],
)
def test_library_calls_reject_non_integer_index(query, index):
    # True used to answer for component 1 and 0.5 to fail with a bare TypeError
    with pytest.raises(IndexOutOfRange, match=f"got {index!r}"):
        query(sequence("x", 2, 3), sequence("y", 4), index)
