"""Randomized cross-validation of the slot-grid decision against projection.

Every random instance is checked for every component pair: the grid
verdict must match the projection verdict and every emitted witness must
be one of the projection's windows, looked up by binary search in its
ascending ``(start, end)`` spans.  One projection sweep per instance,
``oracle.project``, gives the windows of every pair at once: the
components of each side tile its period, and each piece of the overlay
of the two tilings is one window of one pair, so the sweep takes at most
``n_x * S + n_y * R`` steps for all ``n_x * n_y`` pairs.

Optionally the rule battery is censused on every entry pair, counting
soundness violations (a rule fired but ``check_pair`` finds no overlap:
always a bug) and exhaustiveness gaps (``check_pair`` finds an overlap
but no rule fired: expected, reported as a census only).  The rules read
only an entry's shape (relation, left gap, right gap), never its slot or
component, so the census evaluates each distinct pair of shapes of an
instance once and counts it for every entry pair, across all component
pairs, that it stands for.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .coincidence import check_pair, create_network, decide, fired_theorems
from .oracle import project
from .partition import build_gcd_partition
from .randgen import SplitMix64, random_instance


@dataclass
class VerifyReport:
    trials: int
    seed: int
    pairs_checked: int = 0
    mismatches: int = 0
    witness_errors: int = 0
    battery_pairs: int = 0
    soundness_violations: int = 0
    exhaustiveness_gaps: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # Exhaustiveness gaps are expected and never fail a run; a
        # soundness violation always does.
        return (
            self.mismatches == 0
            and self.witness_errors == 0
            and self.soundness_violations == 0
        )

    def summary_lines(self) -> list[str]:
        return [
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"pairs checked: {self.pairs_checked}",
            f"verdict mismatches: {self.mismatches}",
            f"witness errors: {self.witness_errors}",
            f"battery entry pairs: {self.battery_pairs}",
            f"battery soundness violations: {self.soundness_violations}",
            f"battery exhaustiveness gaps: {self.exhaustiveness_gaps}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


def _check_run_args(trials: int, seed: int) -> None:
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def run_verification(trials: int, seed: int, include_battery: bool = True) -> VerifyReport:
    """Check ``trials`` seeded random instances on every component pair."""
    _check_run_args(trials, seed)
    rng = SplitMix64(seed)
    report = VerifyReport(trials=trials, seed=seed)
    for t in range(trials):
        x, y = random_instance(rng)
        spans = project(x, y)
        for p in range(x.length):
            for q in range(y.length):
                report.pairs_checked += 1
                d = decide(x, y, p, q)
                windows = spans[p][q]
                if d.coincides != bool(windows):
                    report.mismatches += 1
                    report.failures.append(
                        f"trial {t}: verdict mismatch at (p={p}, q={q}): "
                        f"grid={d.coincides} projection={bool(windows)}"
                    )
                if d.witness is not None and not _has_span(windows, d.witness):
                    report.witness_errors += 1
                    report.failures.append(
                        f"trial {t}: witness {d.witness} at (p={p}, q={q}) "
                        f"not among projection windows"
                    )
        if include_battery:
            _battery_census(report, x, y)
    return report


def _has_span(spans, w) -> bool:
    """True when window ``w`` is one of ``spans``, ascending and disjoint."""
    span = (w.start, w.end)
    i = bisect_left(spans, span)
    return i < len(spans) and spans[i] == span


def _shapes(spec, g):
    """The distinct entry shapes of one side's networks, across components.

    ``fired_theorems`` and ``check_pair`` read an entry's ``rel``,
    ``left_gap`` and ``right_gap`` (``common_dur`` is ``g`` minus both
    gaps), never its slot or component, so one entry stands for every
    entry of its shape.  Each shape is ``[entry, slots, groups]``: the
    first entry of that shape, the number of entries it stands for, and
    one ``(component, slots)`` group per network run of that shape.
    """
    shapes = {}
    for p in range(spec.length):
        for e, count in create_network(spec, g, p).runs:
            key = (e.rel, e.left_gap, e.right_gap)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = [e, 0, []]
            shape[1] += count
            shape[2].append((p, range(e.slot, e.slot + count)))
    return list(shapes.values())


def _battery_census(report, x, y):
    """Evaluate the rule battery on every entry pair of every component pair.

    Each distinct pair of entry shapes is evaluated once and counted once
    per entry pair it stands for; a soundness violation is reported for
    every one of those entry pairs, with its components and real slots,
    in ``(p, q, r, s)`` order.
    """
    g = build_gcd_partition(x, y).slot_dur
    shapes_x, shapes_y = _shapes(x, g), _shapes(y, g)
    report.battery_pairs += sum(n for _, n, _ in shapes_x) * sum(n for _, n, _ in shapes_y)
    violations = []
    for ex, nx, groups_x in shapes_x:
        for ey, ny, groups_y in shapes_y:
            fired = fired_theorems(ex, ey, g)
            overlap = check_pair(ex, ey, g)
            if fired and not overlap:
                report.soundness_violations += nx * ny
                rules = sorted(fired)
                violations.extend(
                    (p, q, r, s, rules)
                    for p, slots_x in groups_x
                    for q, slots_y in groups_y
                    for r in slots_x
                    for s in slots_y
                )
            elif overlap and not fired:
                report.exhaustiveness_gaps += nx * ny
    # (p, q, r, s) is unique per entry pair, so the sort never compares rules.
    violations.sort()
    report.failures.extend(
        f"unsound rule(s) {rules} at (p={p}, q={q}), slots ({r}, {s})"
        for p, q, r, s, rules in violations
    )


@dataclass
class CommutativityReport:
    trials: int
    seed: int
    pairs_checked: int = 0
    verdict_disagreements: int = 0
    window_set_mismatches: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict_disagreements == 0 and self.window_set_mismatches == 0


def run_commutativity(trials: int, seed: int) -> CommutativityReport:
    """Check that swapping the two sequences never changes the answer."""
    _check_run_args(trials, seed)
    rng = SplitMix64(seed)
    report = CommutativityReport(trials=trials, seed=seed)
    for _ in range(trials):
        x, y = random_instance(rng)
        fwd, rev = project(x, y), project(y, x)
        for p in range(x.length):
            for q in range(y.length):
                report.pairs_checked += 1
                if decide(x, y, p, q).coincides != decide(y, x, q, p).coincides:
                    report.verdict_disagreements += 1
                if set(fwd[p][q]) != set(rev[q][p]):
                    report.window_set_mismatches += 1
    return report
