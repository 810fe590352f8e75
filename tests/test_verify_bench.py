from __future__ import annotations

import pytest
from hypothesis import given, settings

import coincide.verify
from coincide.bench import run_bench
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
    _battery_census(report, x, y)
    return report


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
    assert a.summary_lines(True) == b.summary_lines(True)
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
        monkeypatch.setattr(module, "fired_theorems", lambda ex, dx, ey, dy, g: {"T6.X"})
        if never_overlap:
            monkeypatch.setattr(module, "check_pair", lambda wx, wy: False)
    rng = SplitMix64(7)
    violations = 0
    for _ in range(50):
        x, y = random_instance(rng)
        ref = per_pair_census(x, y)
        assert _census_fields(_grouped_census(x, y)) == _census_fields(ref)
        violations += ref.soundness_violations
    assert violations > 0


def test_verification_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_verification(trials=0, seed=1)


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
