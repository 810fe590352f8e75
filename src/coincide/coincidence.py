"""Coincidence decision on the gcd slot grid.

One residue-shift kernel answers ``decide``, ``first_coincidence`` and
``enumerate_coincidences``.  Let ``a`` and ``b`` be the period-local
starts of ``x[p]`` and ``y[q]``, ``c = b - a`` and ``g`` the slot size.
Entry pair ``(r, s)``, one slot of each period that the component
overlaps, overlaps in the shared slot frame iff ``m = r - s`` lies in
``[lo, hi]`` with ``lo = floor((-d_y - c) / g) + 1`` and
``hi = ceil((d_x - c) / g) - 1``.  So the verdict is O(1) arithmetic:
the components coincide iff ``lo <= hi``.  Each admissible ``m`` shifts
the y window by ``m * g + c`` against the x window and gives exactly one
shared window per joint cycle, in x's period ``n`` with
``m = -n * R (mod S)``.  A window lies inside its x incidence, so the
windows ascend by ``n``, then by ``m``, and one walk
(``_ShiftKernel.walk``) yields them in that order as plain ``(start, end)``
ints, carrying the residue of ``m`` from period to period.  Where periods
hold no window it jumps to the next that holds one by a Euclid-like
descent (``_first_hit``) in O(log S).  The earliest window is the walk's
first item, and ``enumerate`` streams the rest: one step per window, never
one per slot, and the CLI builds no ``Interval`` per window.  A query
builds one kernel, so one partition.  ``check``'s witness is placed by
the CRT step of ``align_slot`` on its witnessing slot pair, whose entries
it reads from the kernel as well.

The paper's per-period slot networks, its network verdict procedure and
the qualitative rule battery stay as the explanation layer (``check``
reports the rules its witnessing slot pair fires) and as evidence for
the reproduction (``bench`` counts the network procedure's operations,
``verify`` censuses the battery).  A network entry is the one record of
how a window sits on a slot: its gaps place the window's in-slot part,
and ``check_pair`` tests two entries for overlap from those gaps alone.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .intervals import Interval, Relation
from .partition import BadGcd, align_slot, build_gcd_partition
from .recurrence import SequenceSpec, _check_index

# Relations meaning the slot lies fully inside the component window.  Any
# such entry guarantees a coincidence against every component of the other
# sequence: the other component overlaps some slot, and that slot aligns
# with this one somewhere in the cycle.
SLOT_SUB_COMPONENT = frozenset(
    {Relation.EQUALS, Relation.STARTED_BY, Relation.FINISHED_BY, Relation.CONTAINS}
)


@dataclass(frozen=True)
class NetworkEntry:
    """One slot positively overlapped by a component window.

    slot:       period-local slot index.
    rel:        relation of the component window to the slot window
                (component as first argument); never a disjoint relation.
    left_gap:   units of the slot left of the component start (0 if the
                component starts at or before the slot).
    right_gap:  units of the slot right of the component end.
    common_dur: units shared by component and slot (always >= 1).
    """

    slot: int
    rel: Relation
    left_gap: int
    right_gap: int
    common_dur: int


@dataclass(frozen=True)
class Network:
    """The slot entries of one component within a period, stored as runs.

    Every slot strictly between the component's first and last slot lies
    inside its window and has one entry shape (``contains``, no gaps,
    ``g`` common units), so a network is at most three runs: the first
    slot, the interior slots and the last slot.  ``runs`` holds each
    run's first entry and its number of slots, in slot order.
    ``entries`` is their expansion, one entry per slot as the paper lists
    a network; it costs one entry per slot, where ``runs`` costs O(1).

    ``flag`` is True when some slot lies fully inside the component
    window, which already settles every coincidence query against this
    component in the affirmative.
    """

    runs: tuple[tuple[NetworkEntry, int], ...]
    flag: bool

    @property
    def entries(self) -> tuple[NetworkEntry, ...]:
        return tuple(
            NetworkEntry(e.slot + i, e.rel, e.left_gap, e.right_gap, e.common_dur)
            for e, count in self.runs
            for i in range(count)
        )


def check_pair(ex: NetworkEntry, ey: NetworkEntry, g: int) -> bool:
    """True when the windows of two entries share a unit in the slot frame.

    Pin both component windows to the frame of one slot ``[0, g)``, which
    some cycle slot realizes for every residue pair, so a positive answer
    here is a positive answer for the whole cycle.  Each window meets the
    slot, and pairwise-intersecting intervals share a point (1-D Helly),
    so the two windows overlap iff their in-slot parts
    ``[left_gap, g - right_gap)`` do.
    """
    return max(ex.left_gap, ey.left_gap) + max(ex.right_gap, ey.right_gap) < g


# The relation of a window to a slot it overlaps, indexed by the signs of
# (window start - slot start) and (window end - slot end), each plus one.
# A window that overlaps its slot stands in one of these nine relations.
_SLOT_RELATIONS = (
    (Relation.OVERLAPS, Relation.FINISHED_BY, Relation.CONTAINS),
    (Relation.STARTS, Relation.EQUALS, Relation.STARTED_BY),
    (Relation.DURING, Relation.FINISHES, Relation.OVERLAPPED_BY),
)


def _entry(a: int, d: int, r: int, g: int) -> NetworkEntry:
    """The entry of window ``[a, a + d)`` on slot ``r``, which it overlaps."""
    lo = a - r * g
    hi = lo + d - g
    rel = _SLOT_RELATIONS[(lo > 0) - (lo < 0) + 1][(hi > 0) - (hi < 0) + 1]
    left_gap, right_gap = max(0, lo), max(0, -hi)
    return NetworkEntry(r, rel, left_gap, right_gap, g - left_gap - right_gap)


def create_network(spec: SequenceSpec, g: int, p: int) -> Network:
    """Build the slot network of component ``p`` on a grid of ``g``-unit slots.

    Entries cover exactly the slots ``a // g .. (a + d - 1) // g`` where
    ``[a, a + d)`` is the component window; only those overlap it by at
    least one unit.  The network is built as runs (see ``Network``): at
    most three entries are computed, whatever the duration.
    """
    _check_index(spec, p)
    if not isinstance(g, int) or isinstance(g, bool) or g < 1 or spec.total_dur % g != 0:
        raise BadGcd(f"slot duration {g!r} does not divide period {spec.total_dur}")
    a, d = spec.offsets()[p], spec.durs[p]
    first = a // g
    last = (a + d - 1) // g
    runs = [(_entry(a, d, first, g), 1)]
    if last - first > 1:
        # Interior slots start after ``a`` and end by ``a + d - 1``.
        runs.append((NetworkEntry(first + 1, Relation.CONTAINS, 0, 0, g), last - first - 1))
    if last > first:
        runs.append((_entry(a, d, last, g), 1))
    flag = any(e.rel in SLOT_SUB_COMPONENT for e, _ in runs)
    return Network(tuple(runs), flag)


def fired_theorems(ex: NetworkEntry, ey: NetworkEntry, g: int) -> set[str]:
    """Identifiers of the sufficient-condition rules the entry pair satisfies.

    Each rule reads only the two entries and the slot size, and each is
    sound: if any fires, the frame windows of the two entries overlap.
    A rule reads a component's duration only on a side whose relation is
    ``starts``, ``finishes`` or ``during``; there the component lies inside
    the slot, so its duration is the entry's ``common_dur``.  The set is
    not exhaustive; overlapping pairs that fire nothing are possible and
    are surfaced by the verification harness as a census, not a failure.

    Rules 6.1-6.6 are one-sided: each is stated once over a (first,
    second) entry pair and checked in both orders, firing as T6.k with
    the x entry first and as C6.k with the y entry first.  T6.7-T6.9 read
    both sides alike and are checked once.
    """
    rx, ry = ex.rel, ey.rel
    fired: set[str] = set()
    ov, ovb = Relation.OVERLAPS, Relation.OVERLAPPED_BY
    st, fin, dur = Relation.STARTS, Relation.FINISHES, Relation.DURING

    for e1, e2, side in ((ex, ey, "T"), (ey, ex, "C")):
        r1, r2, c1 = e1.rel, e2.rel, e1.common_dur
        # 6.1: both windows hang over the same slot edge, so an overlap at
        # that edge is forced.  Start-edge family {starts, overlaps},
        # end-edge family {finishes, overlapped-by}.
        if (r1 is ov and r2 in (st, ov)) or (r1 is ovb and r2 in (fin, ovb)):
            fired.add(side + "6.1")
        # 6.2: opposite edges, but together the windows are longer than the slot.
        if r1 is fin and r2 is st and c1 + e2.common_dur > g:
            fired.add(side + "6.2")
        # 6.3-6.6: the second window floats inside the slot and reaches the
        # first one's in-slot part, which starts the slot (6.3), finishes it
        # (6.4), overhangs its start (6.5) or overhangs its end (6.6).
        if r1 is st and r2 is dur and e2.left_gap < c1:
            fired.add(side + "6.3")
        if r1 is fin and r2 is dur and e2.right_gap < c1:
            fired.add(side + "6.4")
        if r1 is ov and r2 is dur and e2.left_gap < c1:
            fired.add(side + "6.5")
        if r1 is ovb and r2 is dur and e2.right_gap < c1:
            fired.add(side + "6.6")

    # Same anchor on both sides: both start the slot or both finish it.
    if (rx is st and ry is st) or (rx is fin and ry is fin):
        fired.add("T6.7")

    # Both float inside the slot; their lead gaps are staggered by less
    # than the other window's length.
    if rx is dur and ry is dur:
        jj, kk = ex.left_gap, ey.left_gap
        if (kk <= jj < kk + ey.common_dur) or (jj <= kk < jj + ex.common_dur):
            fired.add("T6.8")

    # A slot fully inside either component overlaps the other side's
    # entry window no matter what.
    if rx in SLOT_SUB_COMPONENT or ry in SLOT_SUB_COMPONENT:
        fired.add("T6.9")

    return fired


@dataclass(frozen=True)
class Decision:
    """Outcome of a coincidence query.

    ``witness`` is one shared window in absolute cycle coordinates: the
    intersection of one incidence of each component, present only when
    ``coincides``.  It need not be maximal, since a window can touch the
    next one.  ``via`` is the period-local slot pair ``(r, s)`` whose
    alignment produces it.
    """

    coincides: bool
    witness: Interval | None = None
    via: tuple[int, int] | None = None


class _ShiftKernel:
    """One query ``x[p]`` against ``y[q]`` in residue-shift form; see the
    module docstring.

    ``a``/``dx`` and ``b``/``dy`` are the period-local start and duration
    of ``x[p]`` and ``y[q]``; entry pair ``(r, s)`` overlaps iff
    ``lo <= r - s <= hi``.
    """

    __slots__ = ("part", "a", "dx", "b", "dy", "lo", "hi")

    def __init__(self, x: SequenceSpec, y: SequenceSpec, p: int, q: int):
        _check_index(x, p)
        _check_index(y, q)
        self.part = part = build_gcd_partition(x, y)
        g = part.slot_dur
        self.a, self.b = a, b = x.offsets()[p], y.offsets()[q]
        self.dx, self.dy = dx, dy = x.durs[p], y.durs[q]
        c = b - a
        self.lo = (-dy - c) // g + 1
        self.hi = (dx - c - 1) // g

    def walk(self) -> Iterator[tuple[int, int]]:
        """Every window of the cycle as ``(start, end)`` ints, ascending.

        Each window lies inside one x incidence, which ends before x's
        next period starts, so ascending order is by x period ``n``, then
        by ``m``.  Period ``n`` holds the ``m`` in ``[lo, hi]`` with
        ``m = -n * R (mod S)``: ``lo + res`` with ``res = (-n * R - lo) mod S``,
        then every ``S`` up to ``hi``.  ``res`` is carried from period to
        period; where it exceeds ``hi - lo`` the period holds none, and one
        ``_first_hit`` call jumps to the next period that does.  At ``m``
        the x incidence ``[xs, xs + dx)`` meets the y incidence that starts
        at ``ys = xs + m * g + c``, which steps by ``S * g`` within a period.
        """
        part = self.part
        g, big_s, lo, hi = part.slot_dur, part.slots_y, self.lo, self.hi
        rg, sg, a, dx, dy = part.slots_x * g, big_s * g, self.a, self.dx, self.dy
        s_lo, s_hi = lo * g + self.b - a, hi * g + self.b - a  # ys - xs at m = lo and m = hi
        width, step = hi - lo, -part.slots_x % big_s
        n, res = 0, -lo % big_s
        while width >= 0:
            if res > width:  # then S - res + width < S, so the target does not wrap
                k = _first_hit(step, big_s, big_s - res, big_s - res + width)
                n, res = n + k, (res + k * step) % big_s
            if n >= big_s:
                return
            xs = n * rg + a
            xe, ys, last = xs + dx, xs + s_lo + res * g, xs + s_hi
            while ys <= last:
                ye = ys + dy
                yield (ys if ys > xs else xs), (ye if ye < xe else xe)
                ys += sg
            n, res = n + 1, res + step
            if res >= big_s:
                res -= big_s

    def decision(self) -> Decision:
        """The verdict, with the first overlapping entry pair as ``via``.

        The verdict is ``lo <= hi``.  The witness comes from the first
        overlapping entry pair in the network scan order (x entries outer,
        y entries inner, both ascending), found in O(1): every admissible
        ``m`` is realized by some entry pair, so the first row with an
        overlapping pair is ``r = max(fx, fy + lo)`` and its first column
        is ``s = max(fy, r - hi)``, where ``fx`` and ``fy`` are the first
        slots of each network.
        """
        if self.lo > self.hi:
            return Decision(False)
        part, a, b = self.part, self.a, self.b
        g = part.slot_dur
        fy = b // g
        r = max(a // g, fy + self.lo)
        s = max(fy, r - self.hi)
        # Cycle slot k is slot r of x's period k // R and slot s of y's
        # period k // S, so those two incidences meet there.
        k = align_slot(part, r, s)
        xs, ys = (k - r) * g + a, (k - s) * g + b
        witness = Interval.from_endpoints(max(xs, ys), min(xs + self.dx, ys + self.dy))
        return Decision(True, witness, (r, s))

    def via_entries(self, via: tuple[int, int]) -> tuple[NetworkEntry, NetworkEntry]:
        """The x and y network entries at the overlapping slot pair ``via``."""
        g = self.part.slot_dur
        return _entry(self.a, self.dx, via[0], g), _entry(self.b, self.dy, via[1], g)


def _first_hit(a: int, m: int, low: int, high: int) -> int:
    """The least ``k >= 0`` with ``low <= a * k mod m <= high``.

    Needs ``0 <= low <= high < m`` and ``gcd(a, m) = 1``; then ``a * k``
    runs through every residue, so a hit exists.  If no multiple of ``a``
    lies in ``[low, high]``, the hit is the least ``k`` with
    ``low + m * j <= a * k <= high + m * j`` for the least ``j`` that
    admits one.  That interval holds a multiple of ``a`` iff
    ``m * j mod a`` lies in ``[a - high % a, a - low % a]``: the same
    question on ``(m mod a, a)``.  The loop descends through these
    questions as Euclid's algorithm does, in O(log m) steps, keeping each
    level's ``(a, m, low)`` in a linked tuple ``up``; it then unwinds,
    turning each level's least ``j`` into the least ``k`` of the level
    above.  A loop, not recursion, so no period is too long for the stack.
    """
    up = ()
    while low:
        a %= m
        k = -(-low // a)
        if a * k <= high:
            break
        up = (a, m, low, up)
        a, m, low, high = m, a, a - high % a, a - low % a
    else:
        k = 0
    while up:
        a, m, low, up = up
        k = -(-(low + m * k) // a)
    return k


def decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> Decision:
    """Decide whether components ``x[p]`` and ``y[q]`` ever share a unit.

    O(1) on one residue-shift kernel; ``via`` is the first overlapping
    entry pair in the network scan order (``_ShiftKernel.decision``).
    """
    return _ShiftKernel(x, y, p, q).decision()


def first_coincidence(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> Interval | None:
    """Earliest shared window of ``x[p]`` and ``y[q]`` in the cycle.

    A window is the intersection of one incidence of each component, so
    it can touch a neighbouring window.  Returns None when the components
    never coincide.  It is the first item of ``_ShiftKernel.walk``, found
    in O(log S) by at most one ``_first_hit`` search.
    """
    first = next(_ShiftKernel(x, y, p, q).walk(), None)
    return None if first is None else Interval.from_endpoints(*first)


def enumerate_coincidences(
    x: SequenceSpec, y: SequenceSpec, p: int, q: int
) -> tuple[Interval, ...]:
    """Every shared window of ``x[p]`` and ``y[q]`` in one cycle, ascending.

    Each window is the intersection of one incidence of each component;
    windows never overlap but can touch, so they are not merged into
    maximal runs.  Equal to ``oracle_decide(...).windows``.
    """
    return tuple(Interval.from_endpoints(s, e) for s, e in _ShiftKernel(x, y, p, q).walk())


def network_decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> tuple[bool, int]:
    """The paper's network verdict procedure for ``x[p]`` and ``y[q]``.

    Build the y-side network and accept on its flag; otherwise build the
    x-side network and accept on its flag; otherwise test every entry
    pair with ``check_pair``.  Without a flag each network has at
    most two entries, so the pair scan is constant-size.

    Returns the verdict and its cost in steps: the cursor walk of each
    network built, one step per component skipped, per slot skipped and
    per entry emitted, and one step per pair test.  The walk to component
    ``q`` with first slot ``f`` and last slot ``l`` is ``q + f + (l - f + 1)``
    steps, charged arithmetically from the runs, so the procedure is O(1)
    at any duration.
    """
    _check_index(x, p)
    g = build_gcd_partition(x, y).slot_dur
    ny = create_network(y, g, q)
    steps = q + ny.runs[-1][0].slot + 1
    if ny.flag:
        return True, steps
    nx = create_network(x, g, p)
    steps += p + nx.runs[-1][0].slot + 1
    if nx.flag:
        return True, steps
    # An interior run is flagged, so every run left here is a single slot.
    for ex, _ in nx.runs:
        for ey, _ in ny.runs:
            steps += 1
            if check_pair(ex, ey, g):
                return True, steps
    return False, steps
