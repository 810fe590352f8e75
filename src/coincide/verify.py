"""Randomized cross-validation of the slot-grid decision against projection.

Every random instance is checked for every component pair: the grid
verdict must match the projection verdict and every emitted witness must
be one of the projection's windows.  Optionally the rule battery is
censused on every entry pair, counting soundness violations (a rule
fired but the windows do not overlap: always a bug) and exhaustiveness
gaps (the windows overlap but no rule fired: expected, reported as a
census only).  Entries of one shape answer alike, so each distinct pair
of entry shapes is evaluated once and counted for every entry pair it
stands for.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .coincidence import SlotFrameWindow, check_pair, create_network, decide, fired_theorems
from .oracle import oracle_decide
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

    def summary_lines(self, include_battery: bool) -> list[str]:
        lines = [
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"pairs checked: {self.pairs_checked}",
            f"verdict mismatches: {self.mismatches}",
            f"witness errors: {self.witness_errors}",
        ]
        if include_battery:
            lines += [
                f"battery entry pairs: {self.battery_pairs}",
                f"battery soundness violations: {self.soundness_violations}",
                f"battery exhaustiveness gaps: {self.exhaustiveness_gaps}",
            ]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def run_verification(trials: int, seed: int, include_battery: bool = True) -> VerifyReport:
    """Check ``trials`` seeded random instances on every component pair."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = SplitMix64(seed)
    report = VerifyReport(trials=trials, seed=seed)
    for t in range(trials):
        x, y = random_instance(rng)
        for p in range(x.length):
            for q in range(y.length):
                report.pairs_checked += 1
                d = decide(x, y, p, q)
                rep = oracle_decide(x, y, p, q)
                if d.coincides != rep.decision.coincides:
                    report.mismatches += 1
                    report.failures.append(
                        f"trial {t}: verdict mismatch at (p={p}, q={q}): "
                        f"grid={d.coincides} projection={rep.decision.coincides}"
                    )
                if d.witness is not None and d.witness not in rep.windows:
                    report.witness_errors += 1
                    report.failures.append(
                        f"trial {t}: witness {d.witness} at (p={p}, q={q}) "
                        f"not among projection windows"
                    )
        if include_battery:
            _battery_census(report, x, y)
    return report


def _framed_networks(spec, g):
    """Per component: its duration and its network entries grouped by shape.

    ``fired_theorems`` reads an entry's ``rel``, ``left_gap`` and
    ``right_gap`` (``common_dur`` is ``g`` minus both gaps), never its
    slot, so one entry per shape stands for all of them.  A group is that
    representative, the in-slot part ``[left_gap, g - right_gap)`` of its
    frame window, and the slots of its members.  Two frame windows that
    both meet the slot ``[0, g)`` overlap iff their in-slot parts do:
    pairwise-intersecting intervals share a point (1-D Helly).  Interior
    slots all have one shape, so a component has at most three groups.
    """
    out = []
    for p, comp in enumerate(spec.components):
        groups = {}
        for e in create_network(spec, g, p).entries:
            groups.setdefault((e.rel, e.left_gap, e.right_gap), (e, []))[1].append(e.slot)
        shapes = [
            (e, SlotFrameWindow(e.left_gap, g - e.right_gap), slots) for e, slots in groups.values()
        ]
        out.append((comp.dur, shapes))
    return out


def _battery_census(report, x, y):
    """Evaluate the rule battery on every entry pair of every component pair.

    Each pair of entry shapes is evaluated once and counted once per entry
    pair it stands for; a soundness violation is reported for every one of
    those entry pairs, with its real slots.
    """
    g = build_gcd_partition(x, y).slot_dur
    framed_y = _framed_networks(y, g)
    for p, (dx, groups_x) in enumerate(_framed_networks(x, g)):
        for q, (dy, groups_y) in enumerate(framed_y):
            for ex, wx, slots_x in groups_x:
                for ey, wy, slots_y in groups_y:
                    n = len(slots_x) * len(slots_y)
                    report.battery_pairs += n
                    fired = fired_theorems(ex, dx, ey, dy, g)
                    overlap = check_pair(wx, wy)
                    if fired and not overlap:
                        report.soundness_violations += n
                        report.failures.extend(
                            f"unsound rule(s) {sorted(fired)} at (p={p}, q={q}), slots ({r}, {s})"
                            for r in slots_x
                            for s in slots_y
                        )
                    elif overlap and not fired:
                        report.exhaustiveness_gaps += n


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
    rng = SplitMix64(seed)
    report = CommutativityReport(trials=trials, seed=seed)
    for _ in range(trials):
        x, y = random_instance(rng)
        for p in range(x.length):
            for q in range(y.length):
                report.pairs_checked += 1
                if decide(x, y, p, q).coincides != decide(y, x, q, p).coincides:
                    report.verdict_disagreements += 1
                fwd = set(oracle_decide(x, y, p, q).windows)
                rev = set(oracle_decide(y, x, q, p).windows)
                if fwd != rev:
                    report.window_set_mismatches += 1
    return report
