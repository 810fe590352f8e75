"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from first principles (or as a
direct transcription of the cursor-walk formulation) and kept separate
from the production code paths it checks.
"""
from __future__ import annotations

from coincide import (
    Interval,
    Relation,
    SequenceSpec,
    allen_relation,
    cycle_duration,
    incidences_of,
)
from coincide.coincidence import (
    SLOT_SUB_COMPONENT,
    NetworkEntry,
    _Grid,
    _ShiftKernel,
    create_network,
    fired_theorems,
)
from coincide.partition import build_gcd_partition
from coincide.verify import VerifyReport

# Each of the thirteen relations as a standalone endpoint predicate.
RELATION_PREDICATES = {
    Relation.BEFORE: lambda i, j: i.end < j.start,
    Relation.AFTER: lambda i, j: j.end < i.start,
    Relation.MEETS: lambda i, j: i.end == j.start,
    Relation.MET_BY: lambda i, j: j.end == i.start,
    Relation.OVERLAPS: lambda i, j: i.start < j.start < i.end < j.end,
    Relation.OVERLAPPED_BY: lambda i, j: j.start < i.start < j.end < i.end,
    Relation.STARTS: lambda i, j: i.start == j.start and i.end < j.end,
    Relation.STARTED_BY: lambda i, j: i.start == j.start and j.end < i.end,
    Relation.DURING: lambda i, j: j.start < i.start and i.end < j.end,
    Relation.CONTAINS: lambda i, j: i.start < j.start and j.end < i.end,
    Relation.FINISHES: lambda i, j: j.start < i.start and i.end == j.end,
    Relation.FINISHED_BY: lambda i, j: i.start < j.start and i.end == j.end,
    Relation.EQUALS: lambda i, j: i.start == j.start and i.end == j.end,
}


def first_bad_duration(durs) -> int | None:
    """Index of the first item that is not a positive integer (``bool``
    excluded), checked one item at a time, or None."""
    for idx, dur in enumerate(durs):
        if type(dur) is bool or not isinstance(dur, int) or dur <= 0:
            return idx
    return None


def walk_sequence(obj: dict, which: str) -> SequenceSpec:
    """The spec of one sequence document, checked one component at a time.

    The first component that is not an object with ``"dur"``, or whose
    ``"name"`` is not a string, is named in a ValueError; a missing name
    becomes ``c<index>``.  Durations are left to ``SequenceSpec``.
    """
    comps = obj["components"]
    names = []
    for idx, c in enumerate(comps):
        if not isinstance(c, dict) or "dur" not in c:
            raise ValueError(f"{which}.components[{idx}] must be an object with 'dur'")
        cname = c["name"] if "name" in c else f"c{idx}"
        if not isinstance(cname, str):
            raise ValueError(f"{which}.components[{idx}].name must be a string, got {cname!r}")
        names.append(cname)
    return SequenceSpec(obj.get("name", which), tuple(c["dur"] for c in comps), tuple(names))


def holding_relations(i: Interval, j: Interval) -> list[Relation]:
    return [rel for rel, pred in RELATION_PREDICATES.items() if pred(i, j)]


def scan_align(big_r: int, big_s: int, r: int, s: int) -> int:
    """Exhaustive-search slot alignment: try every cycle slot in turn."""
    for k in range(big_r * big_s):
        if k % big_r == r and k % big_s == s:
            return k
    raise AssertionError(f"no aligned slot for (r={r}, s={s}) with (R={big_r}, S={big_s})")


def naive_windows(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> list[Interval]:
    """Quadratic double loop over all incidence pairs of one cycle."""
    cycle = cycle_duration(x, y)
    out = []
    for ix in incidences_of(x, p, cycle):
        for iy in incidences_of(y, q, cycle):
            s = max(ix.start, iy.start)
            e = min(ix.end, iy.end)
            if s < e:
                out.append(Interval.from_endpoints(s, e))
    return sorted(out, key=lambda w: w.start)


def window(k: _ShiftKernel, m: int) -> tuple[int, int]:
    """``(start, end)`` of the one cycle window of a kernel at slot
    difference ``m``, placed by its own modular inverse: x's period ``n``
    meets y's period ``n'`` at this shift iff ``n' * S - n * R = m``, so
    ``n = -m * R^-1 (mod S)``."""
    part = k.grid.part
    n = (-m * pow(part.slots_x, -1, part.slots_y)) % part.slots_y
    xs = n * part.slots_x * part.slot_dur + k.a
    ys = xs + m * part.slot_dur + k.b - k.a
    return max(xs, ys), min(xs + k.dx, ys + k.dy)


def sorted_windows(k: _ShiftKernel) -> list[tuple[int, int]]:
    """Every window of a kernel's cycle, one ``window(k, m)`` per
    admissible slot difference, sorted: the peer of ``_ShiftKernel.walk``."""
    return sorted(window(k, m) for m in range(k.lo, k.hi + 1))


def scan_first_window(x: SequenceSpec, y: SequenceSpec, p: int, q: int) -> Interval | None:
    """Earliest shared window by scanning every window of the kernel, one
    step per admissible slot difference."""
    k = _Grid(x, y).kernel(p, q)
    first = min((window(k, m) for m in range(k.lo, k.hi + 1)), default=None)
    return None if first is None else Interval.from_endpoints(*first)


def cursor_network(
    spec: SequenceSpec, g: int, p: int
) -> tuple[list[NetworkEntry], bool]:
    """Cursor-walk network construction.

    Walks components and slots in lockstep to reach component p, then
    classifies every slot overlapping it by comparing the running
    positions, emitting the same entry data the production builder
    computes in closed form.  The walk runs to the component's end
    instead of stopping at the first full-slot hit, so the entry list is
    complete.
    """
    durs = spec.durs
    j = 0
    k = 0
    cum = 0
    while j < p:
        end_j = cum + durs[j]
        slot_end = (k + 1) * g
        if end_j == slot_end:
            j += 1
            k += 1
            cum = end_j
        elif end_j > slot_end:
            k += 1
        else:
            j += 1
            cum = end_j
    a = cum
    d = durs[p]
    entries: list[NetworkEntry] = []
    flag = False
    while j == p:
        slot_start = k * g
        slot_end = slot_start + g
        if slot_start < a:
            if slot_end < a + d:
                # slot hangs over the component's start and ends inside it
                entries.append(
                    NetworkEntry(k, Relation.OVERLAPPED_BY, a - slot_start, 0, slot_end - a)
                )
                k += 1
            elif slot_end == a + d:
                entries.append(NetworkEntry(k, Relation.FINISHES, a - slot_start, 0, d))
                j += 1
            else:
                entries.append(
                    NetworkEntry(k, Relation.DURING, a - slot_start, slot_end - (a + d), d)
                )
                j += 1
        elif slot_start == a:
            if slot_end == a + d:
                entries.append(NetworkEntry(k, Relation.EQUALS, 0, 0, g))
                flag = True
                j += 1
            elif slot_end < a + d:
                entries.append(NetworkEntry(k, Relation.STARTED_BY, 0, 0, g))
                flag = True
                k += 1
            else:
                entries.append(NetworkEntry(k, Relation.STARTS, 0, slot_end - (a + d), d))
                j += 1
        else:
            # slot begins strictly inside the component
            if slot_end < a + d:
                entries.append(NetworkEntry(k, Relation.CONTAINS, 0, 0, g))
                flag = True
                k += 1
            elif slot_end == a + d:
                entries.append(NetworkEntry(k, Relation.FINISHED_BY, 0, 0, g))
                flag = True
                j += 1
            else:
                entries.append(
                    NetworkEntry(k, Relation.OVERLAPS, 0, slot_end - (a + d), (a + d) - slot_start)
                )
                j += 1
    return entries, flag


def network_from_period(
    spec: SequenceSpec, g: int, p: int, period: int
) -> tuple[list[NetworkEntry], bool]:
    """Rebuild a network from the absolute incidences of a given period.

    Relates the real component interval to every slot of that period,
    reads the gaps and the common part off their endpoints, then converts
    slot indices back to period-local form.
    """
    big_d = spec.total_dur
    base = period * big_d
    comp = Interval(base + spec.offsets()[p], spec.durs[p])
    slots_per_period = big_d // g
    entries = []
    for r_global in range(period * slots_per_period, (period + 1) * slots_per_period):
        slot = Interval(r_global * g, g)
        s = max(comp.start, slot.start)
        e = min(comp.end, slot.end)
        if s >= e:
            continue
        entries.append(
            NetworkEntry(
                r_global - period * slots_per_period,
                allen_relation(comp, slot),
                max(0, comp.start - slot.start),
                max(0, slot.end - comp.end),
                e - s,
            )
        )
    flag = any(e.rel in SLOT_SUB_COMPONENT for e in entries)
    return entries, flag


def frame_window(spec: SequenceSpec, p: int, r: int, g: int) -> Interval:
    """The full window of component ``p`` re-based to the start of slot ``r``.

    The start may be negative and the end may pass ``g``.
    """
    return Interval(spec.offsets()[p] - r * g, spec.durs[p])


def frame_overlap(wx: Interval, wy: Interval) -> bool:
    """True when two frame windows share at least one unit."""
    return max(wx.start, wy.start) < min(wx.end, wy.end)


def per_pair_census(x: SequenceSpec, y: SequenceSpec) -> VerifyReport:
    """The rule-battery census with one rule evaluation per entry pair.

    Every component pair, every entry pair of their networks, each tested
    on its full frame windows.
    """
    report = VerifyReport(trials=1, seed=0)
    g = build_gcd_partition(x, y).slot_dur
    for p in range(x.length):
        for q in range(y.length):
            for ex in create_network(x, g, p).entries:
                for ey in create_network(y, g, q).entries:
                    report.battery_pairs += 1
                    rules = fired_theorems(ex, ey, g)
                    overlap = frame_overlap(
                        frame_window(x, p, ex.slot, g), frame_window(y, q, ey.slot, g)
                    )
                    if rules and not overlap:
                        report.soundness_violations += 1
                        report.failures.append(
                            f"unsound rule(s) {sorted(rules)} at (p={p}, q={q}), "
                            f"slots ({ex.slot}, {ey.slot})"
                        )
                    elif overlap and not rules:
                        report.exhaustiveness_gaps += 1
    return report
