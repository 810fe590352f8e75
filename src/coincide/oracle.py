"""Brute-force cycle projection, the ground truth for every decision.

Project the incidence windows of both sequences over one joint cycle and
intersect them.  One cycle suffices: every cycle repeats the same
relative layout.  One sweep does all of it (``_sweep``): a two-pointer
merge of the two sides' per-period window lists, each repeated period by
period over the cycle, that records every non-empty intersection under
its window pair and then steps past whichever current window ends first.

``project(x, y)`` runs the sweep once over every component of both
sides.  The components of a sequence tile its period, so the two sides
are two partitions of the cycle, and each piece of their overlay is
exactly one shared window of one component pair ``(p, q)``.  A period
of x holds ``R`` slots of the gcd grid and a period of y ``S``, so the
cycle holds ``S`` periods of x and ``R`` of y, and the sweep takes at
most ``n_x * S + n_y * R`` steps for all ``n_x * n_y`` pairs at once,
where a sweep per pair takes ``R + S``.  ``oracle_decide`` runs the
same sweep with one window per side.  Its ``comparisons`` figure is the
cost of a per-pair projection, the number of incidence pairs a straight
double loop examines, which is quadratic in the periods when their gcd
is 1.

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


def _sweep(x_wins, y_wins, period_x: int, period_y: int, cycle: int) -> list:
    """Intersect two window lists, each repeated every period, over one cycle.

    ``x_wins`` holds ascending, disjoint ``(start, end)`` windows of one
    period of x, likewise ``y_wins``.  Returns ``spans`` where
    ``spans[i][j]`` lists, ascending, the shared windows of every
    incidence of ``x_wins[i]`` with every incidence of ``y_wins[j]``.
    A window that ends first meets no later window of the other side, and
    when both end together neither meets the other's successor, so each
    step passes every window that ends at ``e``.
    """
    spans = [[[] for _ in y_wins] for _ in x_wins]
    last_x, last_y = len(x_wins) - 1, len(y_wins) - 1
    i = j = x_base = y_base = 0
    xs, xe = x_wins[0]
    ys, ye = y_wins[0]
    while True:
        s = xs if xs > ys else ys
        e = xe if xe < ye else ye
        if s < e:
            spans[i][j].append((s, e))
        if xe == e:
            if i < last_x:
                i += 1
            else:
                i = 0
                x_base += period_x
                if x_base == cycle:
                    return spans
            xs, xe = x_wins[i]
            xs += x_base
            xe += x_base
        if ye == e:
            if j < last_y:
                j += 1
            else:
                j = 0
                y_base += period_y
                if y_base == cycle:
                    return spans
            ys, ye = y_wins[j]
            ys += y_base
            ye += y_base


def _windows(spec: SequenceSpec) -> list[tuple[int, int]]:
    return [(a, a + d) for a, d in zip(spec.offsets(), spec.durs)]


def project(x: SequenceSpec, y: SequenceSpec) -> list[list[list[tuple[int, int]]]]:
    """Project every component pair in one sweep over the joint cycle.

    ``project(x, y)[p][q]`` lists the shared windows of ``x[p]`` and
    ``y[q]`` as ascending ``(start, end)`` int pairs, the same pairs as
    ``oracle_decide(x, y, p, q).spans``.
    """
    return _sweep(_windows(x), _windows(y), x.total_dur, y.total_dur, cycle_duration(x, y))


def oracle_decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> OracleReport:
    """Decide by projecting one full cycle; the quadratic baseline.

    Incidence ``i`` of ``x[p]`` is ``[a + i*D_x, a + i*D_x + d_x)``,
    likewise for ``y[q]``: the sweep runs over one window per side, and
    only the witness, the first shared window, becomes an ``Interval``.
    """
    _check_index(x, p)
    _check_index(y, q)
    cycle = cycle_duration(x, y)
    period_x, period_y = x.total_dur, y.total_dur
    a, b = x.offsets()[p], y.offsets()[q]
    spans = _sweep([(a, a + x.durs[p])], [(b, b + y.durs[q])], period_x, period_y, cycle)[0][0]
    witness = Interval.from_endpoints(*spans[0]) if spans else None
    comparisons = (cycle // period_x) * (cycle // period_y)
    return OracleReport(Decision(bool(spans), witness), tuple(spans), comparisons)
