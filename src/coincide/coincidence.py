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
shared window per joint cycle; one modular inverse of R mod S, the CRT
step of ``align_slot``, places it.  Enumeration therefore costs one step
per window, never one per slot.  The earliest window costs O(log S): the
windows with ``m * g + c <= 0`` start at their x incidence, the n-th x
period of the cycle, so the earliest of them is the least n whose residue
``-n * R (mod S)`` falls in their interval of shifts, a Euclid-like
recursion (``_first_hit``); every other window starts at its y incidence
and is the same case with the roles of x and y exchanged.

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

from .intervals import CoincideError, Interval, Relation, allen_relation
from .partition import BadGcd, GcdPartition, build_gcd_partition
from .recurrence import IndexOutOfRange, SequenceSpec, _check_index

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


class NoOverlap(CoincideError):
    """The window does not positively overlap the requested slot."""


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


def _check_slot_dur(spec: SequenceSpec, g: int) -> None:
    if not isinstance(g, int) or isinstance(g, bool) or g < 1 or spec.total_dur % g != 0:
        raise BadGcd(f"slot duration {g!r} does not divide period {spec.total_dur}")


def network_entry(spec: SequenceSpec, g: int, p: int, r: int) -> NetworkEntry:
    """The entry of component ``p`` for period-local slot ``r`` of ``g`` units.

    Raises NoOverlap when the component window shares no unit with the slot.
    """
    _check_index(spec, p)
    _check_slot_dur(spec, g)
    if not isinstance(r, int) or isinstance(r, bool):
        raise IndexOutOfRange(f"slot index must be an integer, got {r!r}")
    a, d = spec.offsets()[p], spec.durs[p]
    if not a // g <= r <= (a + d - 1) // g:
        raise NoOverlap(f"window [{a}, {a + d}) does not overlap slot {r} of size {g}")
    return _entry(a, d, r, g)


def _entry(a: int, d: int, r: int, g: int) -> NetworkEntry:
    lo = a - r * g
    left_gap, right_gap = max(0, lo), max(0, g - lo - d)
    rel = allen_relation(Interval(a, d), Interval(r * g, g))
    return NetworkEntry(r, rel, left_gap, right_gap, g - left_gap - right_gap)


def create_network(spec: SequenceSpec, g: int, p: int) -> Network:
    """Build the slot network of component ``p`` on a grid of ``g``-unit slots.

    Entries cover exactly the slots ``a // g .. (a + d - 1) // g`` where
    ``[a, a + d)`` is the component window; only those overlap it by at
    least one unit.  The network is built as runs (see ``Network``): at
    most three entries are computed, whatever the duration.
    """
    _check_index(spec, p)
    _check_slot_dur(spec, g)
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

    Base rules T6.1-T6.9 take the x-side entry first; C6.1-C6.6 are the
    same conditions with the two sides exchanged.
    """
    rx, ry = ex.rel, ey.rel
    cx, cy = ex.common_dur, ey.common_dur
    fired: set[str] = set()
    ov, ovb = Relation.OVERLAPS, Relation.OVERLAPPED_BY
    st, fin, dur = Relation.STARTS, Relation.FINISHES, Relation.DURING

    # A slot fully inside either component overlaps the other side's
    # entry window no matter what.
    if rx in SLOT_SUB_COMPONENT or ry in SLOT_SUB_COMPONENT:
        fired.add("T6.9")

    # Both windows hang over the same slot edge: an overlap at that edge
    # is forced.  Start-edge family {starts, overlaps}, end-edge family
    # {finishes, overlapped-by}.
    if (rx is ov and ry in (st, ov)) or (rx is ovb and ry in (fin, ovb)):
        fired.add("T6.1")
    if (ry is ov and rx in (st, ov)) or (ry is ovb and rx in (fin, ovb)):
        fired.add("C6.1")

    # Opposite edges, but together the windows are longer than the slot.
    if rx is fin and ry is st and cx + cy > g:
        fired.add("T6.2")
    if ry is fin and rx is st and cx + cy > g:
        fired.add("C6.2")

    # One window starts the slot, the other floats inside it but starts
    # before the first one ends.
    if rx is st and ry is dur and ey.left_gap < cx:
        fired.add("T6.3")
    if ry is st and rx is dur and ex.left_gap < cy:
        fired.add("C6.3")

    # Mirror image at the slot's end.
    if rx is fin and ry is dur and ey.right_gap < cx:
        fired.add("T6.4")
    if ry is fin and rx is dur and ex.right_gap < cy:
        fired.add("C6.4")

    # One window overhangs the slot start, the other floats inside and
    # begins before the overhanging part runs out.
    if rx is ov and ry is dur and ey.left_gap < cx:
        fired.add("T6.5")
    if ry is ov and rx is dur and ex.left_gap < cy:
        fired.add("C6.5")

    # Overhang at the slot end instead.
    if rx is ovb and ry is dur and ey.right_gap < cx:
        fired.add("T6.6")
    if ry is ovb and rx is dur and ex.right_gap < cy:
        fired.add("C6.6")

    # Same anchor on both sides: both start the slot or both finish it.
    if (rx is st and ry is st) or (rx is fin and ry is fin):
        fired.add("T6.7")

    # Both float inside the slot; their lead gaps are staggered by less
    # than the other window's length.
    if rx is dur and ry is dur:
        jj, kk = ex.left_gap, ey.left_gap
        if (kk <= jj < kk + cy) or (jj <= kk < jj + cx):
            fired.add("T6.8")

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


@dataclass(frozen=True)
class _ShiftKernel:
    """One query in residue-shift form; see the module docstring.

    ``a``/``dx`` and ``b``/``dy`` are the period-local start and duration
    of ``x[p]`` and ``y[q]``; entry pair ``(r, s)`` overlaps iff
    ``lo <= r - s <= hi``.  ``inv`` is R^-1 mod S.
    """

    part: GcdPartition
    a: int
    dx: int
    b: int
    dy: int
    lo: int
    hi: int
    inv: int

    def window(self, m: int) -> tuple[int, int]:
        """``(start, end)`` of the one cycle window at slot difference ``m``."""
        part = self.part
        # x's period n meets y's period n' at this shift iff n'S - nR = m,
        # so n = -m * R^-1 (mod S): the CRT step of align_slot.
        n = (-m * self.inv) % part.slots_y
        xs = n * part.slots_x * part.slot_dur + self.a
        ys = xs + m * part.slot_dur + self.b - self.a
        return max(xs, ys), min(xs + self.dx, ys + self.dy)

    def windows(self) -> Iterator[tuple[int, int]]:
        """Every shared window of one cycle, one per admissible ``m``, unsorted."""
        return (self.window(m) for m in range(self.lo, self.hi + 1))

    def first_x_start(self) -> tuple[int, int] | None:
        """The earliest window that starts at an x incidence, or None.

        Those are the windows with ``m * g + c <= 0``, so ``m`` runs over
        ``[lo, lo + width]`` with ``width = min(hi, floor(-c / g)) - lo``.
        The window at ``m`` starts at ``a + g * R * n``, the start of x's
        period ``n``, where ``m = -n * R (mod S)``.  The earliest is
        therefore the least ``n >= 0`` with ``(-n * R - lo) mod S <= width``;
        ``width < S`` because one y incidence at most covers an x start.
        """
        part = self.part
        big_r, big_s = part.slots_x, part.slots_y
        width = min(self.hi, (self.a - self.b) // part.slot_dur) - self.lo
        if width < 0:
            return None
        low = self.lo % big_s
        n = 0 if low + width >= big_s else _first_hit(-big_r % big_s, big_s, low, low + width)
        return self.window(self.lo + (-n * big_r - self.lo) % big_s)


def _first_hit(a: int, m: int, low: int, high: int) -> int:
    """The least ``k >= 0`` with ``low <= a * k mod m <= high``.

    Needs ``0 <= low <= high < m`` and ``gcd(a, m) = 1``; then ``a * k``
    runs through every residue, so a hit exists.  If no multiple of ``a``
    lies in ``[low, high]``, the hit is the least ``k`` with
    ``low + m * j <= a * k <= high + m * j`` for the least ``j`` that
    admits one.  That interval holds a multiple of ``a`` iff
    ``m * j mod a`` lies in ``[a - high % a, a - low % a]``: the same
    question on ``(m mod a, a)``, so the recursion follows Euclid's
    algorithm and takes O(log m) steps.
    """
    if low == 0:
        return 0
    a %= m
    k = -(-low // a)
    if a * k <= high:
        return k
    j = _first_hit(m, a, a - high % a, a - low % a)
    return -(-(low + m * j) // a)


def _shift_kernel(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> _ShiftKernel:
    _check_index(x, p)
    _check_index(y, q)
    part = build_gcd_partition(x, y)
    g = part.slot_dur
    a, b = x.offsets()[p], y.offsets()[q]
    dx, dy = x.durs[p], y.durs[q]
    c = b - a
    lo = (-dy - c) // g + 1
    hi = (dx - c - 1) // g
    return _ShiftKernel(part, a, dx, b, dy, lo, hi, pow(part.slots_x, -1, part.slots_y))


def decide(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> Decision:
    """Decide whether components ``x[p]`` and ``y[q]`` ever share a unit.

    The verdict is ``lo <= hi`` (module docstring).  The witness comes
    from the first overlapping entry pair in the network scan order
    (x entries outer, y entries inner, both ascending), found in O(1):
    every admissible ``m`` is realized by some entry pair, so the first
    row with an overlapping pair is ``r = max(fx, fy + lo)`` and its first
    column is ``s = max(fy, r - hi)``, where ``fx`` and ``fy`` are the
    first slots of each network.
    """
    k = _shift_kernel(x, y, p, q)
    if k.lo > k.hi:
        return Decision(False)
    g = k.part.slot_dur
    fy = k.b // g
    r = max(k.a // g, fy + k.lo)
    s = max(fy, r - k.hi)
    return Decision(True, Interval.from_endpoints(*k.window(r - s)), (r, s))


def first_coincidence(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> Interval | None:
    """Earliest shared window of ``x[p]`` and ``y[q]`` in the cycle.

    A window is the intersection of one incidence of each component, so
    it can touch a neighbouring window.  Returns None when the components
    never coincide.

    A window starts at its x incidence or at its y incidence.  The queries
    ``(x, y, p, q)`` and ``(y, x, q, p)`` have the same windows, since an
    intersection of two incidences does not depend on which is named
    first; so the windows that start at a y incidence are those the
    exchanged kernel starts at its first side, and the earliest window is
    the earlier of the two kernels' ``first_x_start``, each O(log S).
    """
    starts = (
        _shift_kernel(x, y, p, q).first_x_start(),
        _shift_kernel(y, x, q, p).first_x_start(),
    )
    first = min((w for w in starts if w is not None), default=None)
    return None if first is None else Interval.from_endpoints(*first)


def enumerate_coincidences(
    x: SequenceSpec, y: SequenceSpec, p: int, q: int
) -> tuple[Interval, ...]:
    """Every shared window of ``x[p]`` and ``y[q]`` in one cycle, ascending.

    Each window is the intersection of one incidence of each component;
    windows never overlap but can touch, so they are not merged into
    maximal runs.  Equal to ``oracle_decide(...).windows``.
    """
    spans = sorted(_shift_kernel(x, y, p, q).windows())
    return tuple(Interval.from_endpoints(s, e) for s, e in spans)


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
