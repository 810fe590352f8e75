"""Brute-force cycle projection, the ground truth for every decision.

Project both components' incidence windows over one joint cycle and
intersect them pairwise.  One cycle suffices: every cycle repeats the
same relative layout.  The reported ``comparisons`` figure is the cost
of the projection, the number of incidence pairs examined, which is
quadratic in the periods when their gcd is 1.

The projection shares no code with the residue-shift kernel in
``coincidence``; it only walks incidences, kept as plain integers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coincidence import Decision
from .intervals import Interval
from .recurrence import SequenceSpec, _check_index, cycle_duration


@dataclass(frozen=True)
class OracleReport:
    """Full projection outcome.

    ``windows`` holds every shared window in the cycle, ascending and
    pairwise non-overlapping.  Each window is the intersection of one
    incidence of each component, so neighbouring windows can touch: they
    are not merged into maximal runs.  ``comparisons`` counts the
    incidence pairs a straight double loop examines.
    """

    decision: Decision
    windows: tuple[Interval, ...]
    comparisons: int


def oracle_decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> OracleReport:
    """Decide by projecting one full cycle; the quadratic baseline."""
    _check_index(x, p)
    _check_index(y, q)
    cycle = cycle_duration(x, y)
    period_x, period_y = x.total_dur, y.total_dur
    a, dx = x.offsets()[p], x.components[p].dur
    b, dy = y.offsets()[q], y.components[q].dur
    n_x, n_y = cycle // period_x, cycle // period_y
    # Incidence i of x is [a + i*D_x, a + i*D_x + d_x), likewise for y.  Both
    # lists are sorted and internally non-overlapping, so a two-pointer
    # sweep visits every intersecting pair once, in ascending order.
    windows = []
    i = j = 0
    xs, ys = a, b
    while i < n_x and j < n_y:
        s = max(xs, ys)
        e = min(xs + dx, ys + dy)
        if s < e:
            windows.append(Interval.from_endpoints(s, e))
        if xs + dx <= ys + dy:
            i += 1
            xs += period_x
        else:
            j += 1
            ys += period_y
    witness = windows[0] if windows else None
    return OracleReport(Decision(bool(windows), witness), tuple(windows), n_x * n_y)
