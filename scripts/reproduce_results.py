#!/usr/bin/env python3
"""End-to-end reproduction: worked examples, cross-validation, scaling bench.

Usage: python scripts/reproduce_results.py [--trials N] [--seed N] [--max-exponent N]
"""
from __future__ import annotations

import argparse

from coincide import (
    build_gcd_partition,
    cycle_duration,
    decide,
    enumerate_coincidences,
    first_coincidence,
    sequence,
)
from coincide.bench import run_bench
from coincide.verify import run_verification


def show_query(title, x, y, p, q, unit):
    part = build_gcd_partition(x, y)
    d = decide(x, y, p, q)
    windows = enumerate_coincidences(x, y, p, q)
    print(f"== {title}")
    print(f"   {x.name}[{p}] {x.names[p]!r} vs {y.name}[{q}] {y.names[q]!r}")
    print(f"   slot grid: g={part.slot_dur} R={part.slots_x} S={part.slots_y}, "
          f"cycle {cycle_duration(x, y)} {unit}")
    print(f"   coincides: {d.coincides}")
    if d.coincides:
        print(f"   witness {d.witness} via slot pair {d.via}, "
              f"earliest {first_coincidence(x, y, p, q)}")
        print(f"   all windows: {' '.join(map(str, windows))}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-exponent", type=int, default=10)
    args = ap.parse_args()
    try:  # run first, so that a bad --max-exponent fails before the long runs
        bench = run_bench(args.max_exponent)
    except ValueError as exc:
        ap.error(str(exc))

    weekday = sequence(
        "weekday", *[1] * 7,
        component_names=["Monday", "Tuesday", "Wednesday", "Thursday",
                         "Friday", "Saturday", "Sunday"],
    )
    machine = sequence("machine", 5, 3, component_names=["Working", "Rest"])
    machine_short = sequence("machine", 5, 2, component_names=["Working", "Rest"])
    pl1 = sequence("PL-1", 3, 3, 2, component_names=["P1", "P2", "P3"])
    pl2 = sequence("PL-2", 2, 2, component_names=["P4", "P5"])

    show_query("factory: is any rest day a Wednesday?", weekday, machine, 2, 1, "days")
    show_query("factory, 2-day rest variant", weekday, machine_short, 2, 1, "days")
    show_query("production lines: can P2 and P5 coincide?", pl1, pl2, 1, 1, "minutes")
    show_query("production lines: can P1 and P5 coincide?", pl1, pl2, 0, 1, "minutes")

    print(f"== cross-validation ({args.trials} instances, seed {args.seed})")
    report = run_verification(args.trials, args.seed)
    for line in report.summary_lines():
        print(f"   {line}")
    print()

    print(f"== scaling bench (D = 2^4 .. 2^{args.max_exponent})")
    for line in bench.csv_lines():
        print(f"   {line}")
    print(f"   gcd-method log-log slope: {bench.gcd_slope:.3f}")
    print(f"   oracle log-log slope: {bench.oracle_slope:.3f}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
