from __future__ import annotations

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import coincide.coincidence
import coincide.verify
from coincide import Decision, Interval, oracle_decide, sequence
from coincide.bench import run_bench
from coincide.coincidence import _Grid, create_network
from coincide.partition import build_gcd_partition
from coincide.randgen import SplitMix64, random_instance
from coincide.verify import VerifyReport, _battery_census, run_commutativity, run_verification

from . import refimpl
from .conftest import sequence_pairs
from .refimpl import per_pair_census


def _census_fields(report):
    return (
        report.battery_pairs,
        report.soundness_violations,
        report.exhaustiveness_gaps,
        sorted(report.failures),
    )


def _grouped_census(x, y):
    report = VerifyReport(trials=1, seed=0)
    _battery_census(report, _Grid(x, y))
    return report


def _patch_decisions(monkeypatch, change):
    """Replace the decision ``d`` that ``verify`` reads for pair ``(p, q)``,
    from ``grid.kernel(p, q).decision()``, by ``change(d, p, q)``."""
    kernel = _Grid.kernel

    def changed_kernel(grid, p, q):
        d = change(kernel(grid, p, q).decision(), p, q)
        return SimpleNamespace(decision=lambda: d)

    monkeypatch.setattr(_Grid, "kernel", changed_kernel)


def test_verification_small_run_passes():
    report = run_verification(trials=200, seed=42)
    assert report.passed
    assert report.mismatches == 0
    assert report.witness_errors == 0
    assert report.soundness_violations == 0
    assert report.pairs_checked > 0
    assert report.battery_pairs >= report.pairs_checked


def test_verification_is_deterministic():
    a = run_verification(trials=50, seed=7)
    b = run_verification(trials=50, seed=7)
    assert a.summary_lines() == b.summary_lines()
    assert a.pairs_checked == b.pairs_checked
    assert a.exhaustiveness_gaps == b.exhaustiveness_gaps


def test_grouped_census_equals_per_pair_census_on_the_seed_42_stream():
    rng = SplitMix64(42)
    refs = []
    for _ in range(300):
        x, y = random_instance(rng)
        refs.append(per_pair_census(x, y))
        assert _census_fields(_grouped_census(x, y)) == _census_fields(refs[-1])
    report = run_verification(300, 42)
    for name in ("battery_pairs", "soundness_violations", "exhaustiveness_gaps"):
        assert getattr(report, name) == sum(getattr(r, name) for r in refs)
    assert report.failures == []


@settings(deadline=None)
@given(sequence_pairs(max_components=6, max_dur=24))
def test_grouped_census_equals_per_pair_census(pair):
    x, y = pair
    assert _census_fields(_grouped_census(x, y)) == _census_fields(per_pair_census(x, y))


@pytest.mark.parametrize("never_overlap", [False, True])
def test_grouped_census_reports_every_violating_entry_pair(monkeypatch, never_overlap):
    # A battery that always fires makes every non-overlapping entry pair a
    # violation; each must be counted and reported with its own slots.
    # Interior slots, the only shape shared by several entries, always
    # overlap, so the second case also forces every overlap test to fail.
    for module in (coincide.verify, refimpl):
        monkeypatch.setattr(module, "fired_theorems", lambda ex, ey, g: {"T6.X"})
    if never_overlap:
        monkeypatch.setattr(coincide.verify, "check_pair", lambda ex, ey, g: False)
        monkeypatch.setattr(refimpl, "frame_overlap", lambda wx, wy: False)
    rng = SplitMix64(7)
    violations = 0
    for _ in range(50):
        x, y = random_instance(rng)
        ref = per_pair_census(x, y)
        grouped = _grouped_census(x, y)
        assert _census_fields(grouped) == _census_fields(ref)
        # In the reference's (p, q, r, s) order too: `coincide verify` prints
        # the first 20 failures.
        assert grouped.failures == ref.failures
        violations += ref.soundness_violations
    assert violations > 0


def _shape_pairs(x, y):
    g = build_gcd_partition(x, y).slot_dur

    def shapes(spec):
        return {
            (e.rel, e.left_gap, e.right_gap)
            for p in range(spec.length)
            for e in create_network(spec, g, p).entries
        }

    return len(shapes(x)) * len(shapes(y))


def test_census_evaluates_each_distinct_shape_pair_once(monkeypatch):
    # calls[i] counts the fired_theorems calls made for instance i.
    calls = []
    draw, fired = coincide.verify.random_instance, coincide.verify.fired_theorems

    def counted_draw(rng):
        calls.append(0)
        return draw(rng)

    def counted_fired(ex, ey, g):
        calls[-1] += 1
        return fired(ex, ey, g)

    monkeypatch.setattr(coincide.verify, "random_instance", counted_draw)
    monkeypatch.setattr(coincide.verify, "fired_theorems", counted_fired)
    run_verification(200, 42)
    rng = SplitMix64(42)
    expected = [_shape_pairs(*random_instance(rng)) for _ in range(200)]
    assert calls == expected


def test_verification_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_verification(trials=0, seed=1)


def test_commutativity_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_commutativity(trials=0, seed=1)


@pytest.mark.parametrize("run", [run_verification, run_commutativity])
@pytest.mark.parametrize(
    "trials, seed",
    [(2.5, 1), ("3", 1), (True, 1), (None, 1), (1, 1.5), (1, "1"), (1, True), (1, None)],
)
def test_runs_reject_a_non_integer_trials_or_seed(run, trials, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        run(trials=trials, seed=seed)


@pytest.mark.parametrize("include_battery", ["no", "", 1, 0, None])
def test_verification_rejects_a_non_bool_include_battery(monkeypatch, include_battery):
    # Rejected before any instance is drawn, so a truthy "no" runs no census.
    monkeypatch.setattr(coincide.verify, "random_instance", None)
    with pytest.raises(ValueError, match="include_battery must be a bool"):
        run_verification(trials=1, seed=1, include_battery=include_battery)


@pytest.mark.parametrize("stretch", [-1, 1])
def test_verification_reports_a_witness_that_is_not_a_projection_window(monkeypatch, stretch):
    # A witness sharing a window's start but not its end is not that window.
    def off_by_one(d, p, q):
        if d.witness is None or d.witness.dur + stretch < 1:
            return d
        return Decision(True, Interval(d.witness.start, d.witness.dur + stretch), d.via)

    _patch_decisions(monkeypatch, off_by_one)
    report = run_verification(20, 42, include_battery=False)
    assert report.witness_errors > 0 and not report.passed
    assert report.witness_errors == sum("not among projection windows" in f for f in report.failures)


def test_verification_projects_once_per_instance(monkeypatch):
    sweeps = []
    project = coincide.verify.project

    def counted_project(x, y):
        sweeps.append((x, y))
        return project(x, y)

    monkeypatch.setattr(coincide.verify, "project", counted_project)
    pairs = 0
    for seed in range(20):
        sweeps.clear()
        report = run_verification(1, seed)
        assert report.passed
        assert len(sweeps) == 1
        pairs += report.pairs_checked
    assert pairs > 20
    sweeps.clear()
    run_verification(30, 42, include_battery=False)
    assert len(sweeps) == 30


def test_verification_builds_one_grid_per_instance(monkeypatch):
    # One partition per instance serves every pair and the census.  Both
    # sides tile the cycle, so some pair coincides, and the CRT inverse its
    # witness needs is computed once for all of them.
    partitions, inverses = [], []
    build, inverse = coincide.coincidence.build_gcd_partition, coincide.coincidence._inverse

    def counted_build(x, y):
        partitions.append((x, y))
        return build(x, y)

    def counted_inverse(part):
        inverses.append(part)
        return inverse(part)

    monkeypatch.setattr(coincide.coincidence, "build_gcd_partition", counted_build)
    monkeypatch.setattr(coincide.coincidence, "_inverse", counted_inverse)
    pairs = 0
    for seed in range(20):
        partitions.clear()
        inverses.clear()
        report = run_verification(1, seed)
        assert report.passed
        assert len(partitions) == len(inverses) == 1
        pairs += report.pairs_checked
    assert pairs > 20


_FAILURE = re.compile(r"trial (\d+): (verdict mismatch|witness) .*?at \(p=(\d+), q=(\d+)\)")


def test_verification_reports_flipped_verdicts_in_pair_order(monkeypatch):
    # Every pair with p + q even gets the opposite verdict.  A flipped
    # negative comes with a witness that cannot be a projection window, so
    # its pair also has a witness line, after its mismatch line.
    flipped = []

    def flip_some(d, p, q):
        if (p + q) % 2:
            return d
        flipped.append(d.coincides)
        return Decision(False) if d.coincides else Decision(True, Interval(-2, 1), (0, 0))

    _patch_decisions(monkeypatch, flip_some)
    report = run_verification(30, 42, include_battery=False)
    assert not report.passed
    assert report.mismatches == len(flipped)
    assert report.witness_errors == flipped.count(False) > 0
    assert flipped.count(True) > 0
    kinds = {"verdict mismatch": 0, "witness": 1}
    keys = [
        (int(t), int(p), int(q), kinds[kind])
        for t, kind, p, q in (_FAILURE.match(f).groups() for f in report.failures)
    ]
    assert len(keys) == len(report.failures) == report.mismatches + report.witness_errors
    assert keys == sorted(keys)
    assert all((p + q) % 2 == 0 for _, p, q, _ in keys)


def test_oracle_builds_no_interval_per_window(monkeypatch):
    intervals = []
    post_init = Interval.__post_init__

    def counted_post_init(self):
        intervals.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted_post_init)
    rep = oracle_decide(sequence("x", 50, 47), sequence("y", 60, 41), 0, 0)
    assert len(rep.spans) > 100
    assert len(intervals) <= 1
    assert len(rep.windows) == len(rep.spans)
    assert len(intervals) > 100


@settings(deadline=None)
@given(sequence_pairs(max_components=5, max_dur=12))
def test_oracle_windows_are_its_spans(pair):
    x, y = pair
    for p in range(x.length):
        for q in range(y.length):
            rep = oracle_decide(x, y, p, q)
            assert rep.windows == tuple(Interval.from_endpoints(s, e) for s, e in rep.spans)
            assert list(rep.spans) == sorted(set(rep.spans))
            assert rep.decision.witness == (rep.windows[0] if rep.spans else None)


def test_commutativity_small_run():
    report = run_commutativity(trials=100, seed=42)
    assert report.passed
    assert report.pairs_checked > 0


def test_bench_rows_and_slopes():
    report = run_bench(8)
    assert [r.max_dur for r in report.rows] == [16, 32, 64, 128, 256]
    assert report.rows[0].oracle_ops == 16 * 15
    assert all(r.gcd_method_ops > 0 for r in report.rows)
    assert 1.7 <= report.oracle_slope <= 2.3
    assert 0.7 <= report.gcd_slope <= 1.3


def test_bench_oracle_ops_are_the_projection_comparisons():
    # bench reads R * S from the slot grid; projection counts the same pairs.
    for row in run_bench(7).rows:
        big_d = row.max_dur
        x, y = sequence("x", *([1] * big_d)), sequence("y", *([1] * (big_d - 1)))
        assert row.oracle_ops == oracle_decide(x, y, big_d // 2, (big_d - 1) // 2).comparisons


def test_bench_csv_shape():
    report = run_bench(5)
    lines = report.csv_lines()
    assert lines[0] == "max_dur,gcd_method_ops,oracle_ops"
    assert len(lines) == 3


def test_bench_rejects_small_exponent():
    with pytest.raises(ValueError):
        run_bench(3)


def test_bench_single_row_has_no_slope():
    report = run_bench(4)
    assert report.gcd_slope is None and report.oracle_slope is None
