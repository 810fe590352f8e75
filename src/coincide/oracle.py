"""Brute-force cycle projection, the ground truth for every decision.

Project both components' incidence windows over one joint cycle and
intersect them pairwise.  One cycle suffices: every cycle repeats the
same relative layout.  The reported ``comparisons`` figure is the cost
of the projection, the number of incidence pairs examined, which is
quadratic in the periods when their gcd is 1.

The projection shares no code with the residue-shift kernel in
``coincidence``; it only walks incidences, kept as plain integers, and
records the shared windows as ``(start, end)`` int pairs.  An
``Interval`` per window is built only when ``OracleReport.windows`` is
read.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coincidence import Decision
from .intervals import Interval
from .recurrence import SequenceSpec, _check_index, cycle_duration


@dataclass(frozen=True)
class OracleReport:
    """Full projection outcome.

    ``spans`` holds every shared window in the cycle as a ``(start, end)``
    int pair, ascending and pairwise non-overlapping, so a window can be
    looked up by ``bisect``.  Each window is the intersection of one
    incidence of each component, so neighbouring windows can touch: they
    are not merged into maximal runs.  ``comparisons`` counts the
    incidence pairs a straight double loop examines.
    """

    decision: Decision
    spans: tuple[tuple[int, int], ...]
    comparisons: int

    @property
    def windows(self) -> tuple[Interval, ...]:
        """The same windows as ``Interval``s, built on each read."""
        return tuple(Interval.from_endpoints(s, e) for s, e in self.spans)


def oracle_decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> OracleReport:
    """Decide by projecting one full cycle; the quadratic baseline.

    Incidence ``i`` of ``x[p]`` is ``[a + i*D_x, a + i*D_x + d_x)``,
    likewise for ``y[q]``.  Both lists are sorted and internally
    non-overlapping, so a two-pointer sweep over their start and end
    coordinates, kept as plain ints, visits every intersecting pair once,
    in ascending order; only the witness, the first shared window, becomes
    an ``Interval``.
    """
    _check_index(x, p)
    _check_index(y, q)
    cycle = cycle_duration(x, y)
    period_x, period_y = x.total_dur, y.total_dur
    xs, ys = x.offsets()[p], y.offsets()[q]
    xe, ye = xs + x.durs[p], ys + y.durs[q]
    x_stop, y_stop = xs + cycle, ys + cycle
    spans = []
    while xs < x_stop and ys < y_stop:
        s = xs if xs > ys else ys
        e = xe if xe < ye else ye
        if s < e:
            spans.append((s, e))
        if xe <= ye:
            xs += period_x
            xe += period_x
        else:
            ys += period_y
            ye += period_y
    witness = Interval.from_endpoints(*spans[0]) if spans else None
    comparisons = (cycle // period_x) * (cycle // period_y)
    return OracleReport(Decision(bool(spans), witness), tuple(spans), comparisons)
