"""The package's public surface: what ``from coincide import *`` binds."""
from __future__ import annotations

import coincide


def test_star_import_binds_exactly_all():
    # A name left in ``__all__`` after its import is deleted makes the star
    # import raise; a duplicate makes the two lists differ.
    ns: dict = {}
    exec("from coincide import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(coincide.__all__)


def test_all_is_the_pinned_public_surface():
    # Adding or removing a public name is a deliberate edit of this list.
    assert sorted(coincide.__all__) == [
        "BadGcd",
        "BadHorizon",
        "CoincideError",
        "ComponentLookupError",
        "Decision",
        "EmptySequence",
        "GcdPartition",
        "IndexOutOfRange",
        "Interval",
        "Network",
        "NetworkEntry",
        "NonPositiveDuration",
        "OracleReport",
        "Relation",
        "SLOT_SUB_COMPONENT",
        "SequenceSpec",
        "align_slot",
        "allen_relation",
        "build_gcd_partition",
        "check_pair",
        "create_network",
        "cycle_duration",
        "decide",
        "enumerate_coincidences",
        "fired_theorems",
        "first_coincidence",
        "incidences_of",
        "network_decide",
        "oracle_decide",
        "resolve_component",
        "sequence",
    ]
