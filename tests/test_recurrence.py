from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coincide import (
    BadHorizon,
    CoincideError,
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
from .refimpl import first_bad_duration


def test_validate_ok():
    spec = SequenceSpec("machine", (5, 3), ("Working", "Rest"))
    assert spec.total_dur == 8
    assert spec.length == 2
    assert spec.offsets() == (0, 5)


def test_validate_empty():
    with pytest.raises(EmptySequence):
        SequenceSpec("empty", (), ())


def test_validate_non_positive_duration():
    with pytest.raises(NonPositiveDuration) as exc:
        SequenceSpec("bad", (0,), ("A",))
    assert exc.value.index == 0


@pytest.mark.parametrize("dur", [2.5, True, "3"])
def test_rejects_non_integer_duration(dur):
    # Unchecked, 2.5 makes a 3.5-unit period that fails later with a bare
    # TypeError, and True passes as a 1-unit duration.
    with pytest.raises(CoincideError, match="component 0: duration must be a positive integer"):
        sequence("x", dur, 1)


@pytest.mark.parametrize(
    "durs, names, kinds",
    [([1, 2], ("a", "b"), "list and tuple"), ((1, 2), ["a", "b"], "tuple and list")],
    ids=["durs-list", "names-list"],
)
def test_rejects_columns_that_are_not_tuples(durs, names, kinds):
    # A list column would leave the spec unhashable
    with pytest.raises(CoincideError, match=f"durs and names must be tuples, got {kinds}"):
        SequenceSpec("s", durs, names)


def test_rejects_columns_of_different_lengths():
    with pytest.raises(CoincideError, match="2 durations but 1 names"):
        SequenceSpec("s", (1, 2), ("a",))


@pytest.mark.parametrize("names", [["a"], [], ["a", "b", "c", "d"]], ids=["fewer", "empty", "more"])
def test_sequence_rejects_a_name_count_other_than_the_duration_count(names):
    # zip used to truncate to the shorter list, and [] fell back to the
    # default names
    with pytest.raises(CoincideError, match=f"3 durations but {len(names)} names"):
        sequence("x", 1, 2, 3, component_names=names)


_BAD_DURATIONS = st.sampled_from([0, -1, -(2**70), True, False, 2.5, 1.0, "3", None, [1]])


@given(
    st.lists(st.integers(min_value=1, max_value=2**70), min_size=1, max_size=40).flatmap(
        lambda durs: st.tuples(
            st.just(durs),
            st.dictionaries(st.integers(0, len(durs) - 1), _BAD_DURATIONS, max_size=4),
        )
    )
)
def test_first_bad_duration_matches_the_per_item_loop(case):
    durs, bad = case
    durs = tuple(bad.get(i, d) for i, d in enumerate(durs))
    first = first_bad_duration(durs)
    if first is None:
        assert SequenceSpec("s", durs, ("n",) * len(durs)).total_dur == sum(durs)
        return
    with pytest.raises(NonPositiveDuration) as exc:
        SequenceSpec("s", durs, ("n",) * len(durs))
    assert exc.value.index == first
    assert exc.value.dur is durs[first]


def test_derived_fields_leave_equality_hash_and_repr_alone(machine):
    twin = SequenceSpec("machine", machine.durs, machine.names)
    assert twin == machine and hash(twin) == hash(machine)
    assert repr(twin) == "SequenceSpec(name='machine', durs=(5, 3), names=('Working', 'Rest'))"


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
