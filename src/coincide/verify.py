"""Randomized cross-validation of the slot-grid decision against projection.

Every random instance is checked for every component pair: the grid
verdict must match the projection verdict and every emitted witness must
be one of the projection's windows.  Optionally the rule battery is
evaluated on every entry pair, counting soundness violations (a rule
fired but the windows do not overlap: always a bug) and exhaustiveness
gaps (the windows overlap but no rule fired: expected, reported as a
census only).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .coincidence import check_pair, create_network, decide, fired_theorems, slot_frame_window
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
        g = build_gcd_partition(x, y).slot_dur
        if include_battery:
            framed_x, framed_y = _framed_networks(x, g), _framed_networks(y, g)
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
                    _battery_census(report, p, q, framed_x[p], framed_y[q], g)
    return report


def _framed_networks(spec, g):
    """Per component: its duration and its network entries with their frame windows."""
    out = []
    for p, (a, comp) in enumerate(zip(spec.offsets(), spec.components)):
        entries = create_network(spec, g, p).entries
        out.append((comp.dur, [(e, slot_frame_window(a, comp.dur, e.slot, g)) for e in entries]))
    return out


def _battery_census(report, p, q, framed_x, framed_y, g):
    dx, entries_x = framed_x
    dy, entries_y = framed_y
    for ex, wx in entries_x:
        for ey, wy in entries_y:
            report.battery_pairs += 1
            fired = fired_theorems(ex, dx, ey, dy, g)
            overlap = check_pair(wx, wy)
            if fired and not overlap:
                report.soundness_violations += 1
                report.failures.append(
                    f"unsound rule(s) {sorted(fired)} at (p={p}, q={q}), "
                    f"slots ({ex.slot}, {ey.slot})"
                )
            elif overlap and not fired:
                report.exhaustiveness_gaps += 1


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
