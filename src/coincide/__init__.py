"""Coincidence detection for doubly recurring fixed-duration schedules.

Two sequences of fixed-duration components repeat forever from a shared
origin.  This package decides whether a chosen component of each ever
shares a time unit, using a gcd slot grid that reduces the question to
one period of each sequence, cross-validated against brute-force
projection of a full joint cycle.
"""
from .intervals import (
    CoincideError,
    Interval,
    Relation,
    allen_relation,
)
from .recurrence import (
    BadHorizon,
    ComponentLookupError,
    EmptySequence,
    IndexOutOfRange,
    NonPositiveDuration,
    SequenceSpec,
    cycle_duration,
    incidences_of,
    resolve_component,
    sequence,
)
from .partition import BadGcd, GcdPartition, align_slot, build_gcd_partition
from .coincidence import (
    Decision,
    Network,
    NetworkEntry,
    NoOverlap,
    SLOT_SUB_COMPONENT,
    check_pair,
    create_network,
    decide,
    enumerate_coincidences,
    fired_theorems,
    first_coincidence,
    network_decide,
    network_entry,
)
from .oracle import OracleReport, oracle_decide

__version__ = "0.1.0"

__all__ = [
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
    "NoOverlap",
    "NonPositiveDuration",
    "OracleReport",
    "Relation",
    "SLOT_SUB_COMPONENT",
    "SequenceSpec",
    "allen_relation",
    "align_slot",
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
    "network_entry",
    "oracle_decide",
    "resolve_component",
    "sequence",
]
