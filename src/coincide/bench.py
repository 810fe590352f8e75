"""Deterministic scaling benchmark: slot-grid method vs cycle projection.

Instances are the worst case for projection: periods D and D - 1 are
coprime (slot size 1) and every component is a single unit, so the
projection examines D * (D - 1) incidence pairs while the grid method's
work stays proportional to D.  Operation counts, not wall-clock time,
are the metric; both are exactly reproducible.

Grid-method ops per query are the steps ``network_decide`` returns with
its verdict, the paper's network procedure: cursor-walk steps of each
network actually built (components skipped + slots skipped + entries
emitted) plus entry-pair checks.  The walk is charged arithmetically
from the network's runs, so the count is the paper's cost model, not
the time this code takes.
Projection ops: the incidence pairs projection examines, one x and one y
incidence of the queried components per pair, so R * S; it is read from
the slot grid (``cycle_slots``), not counted by running a projection.
Queried components are the middle ones of each sequence.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .coincidence import network_decide
from .partition import build_gcd_partition
from .recurrence import sequence


@dataclass(frozen=True)
class BenchRow:
    max_dur: int
    gcd_method_ops: int
    oracle_ops: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    gcd_slope: float | None
    oracle_slope: float | None

    def csv_lines(self) -> list[str]:
        lines = ["max_dur,gcd_method_ops,oracle_ops"]
        lines += [f"{r.max_dur},{r.gcd_method_ops},{r.oracle_ops}" for r in self.rows]
        return lines


def _loglog_slope(xs: list[int], ys: list[int]) -> float | None:
    if len(xs) < 2:
        return None
    fit = statistics.linear_regression([math.log2(v) for v in xs], [math.log2(v) for v in ys])
    return fit.slope


# The largest instance holds two sequences of about 2^max_exponent
# components each, so every step more than doubles a run's memory; the
# bound stops a run before it can exhaust the machine.
MAX_EXPONENT = 20


def run_bench(max_exponent: int) -> BenchReport:
    """Rows for D = 2^4 .. 2^max_exponent, with 4 <= max_exponent <= 20."""
    if not isinstance(max_exponent, int) or isinstance(max_exponent, bool):
        raise ValueError(f"max exponent must be an integer, got {max_exponent!r}")
    if max_exponent < 4:
        raise ValueError(f"max exponent must be >= 4, got {max_exponent}")
    if max_exponent > MAX_EXPONENT:
        raise ValueError(f"max exponent must be <= {MAX_EXPONENT}, got {max_exponent}")
    rows = []
    for j in range(4, max_exponent + 1):
        big_d = 2**j
        x = sequence("x", *([1] * big_d))
        y = sequence("y", *([1] * (big_d - 1)))
        p = big_d // 2
        q = (big_d - 1) // 2
        _, steps = network_decide(x, y, p, q)
        rows.append(BenchRow(big_d, steps, build_gcd_partition(x, y).cycle_slots))
    durs = [r.max_dur for r in rows]
    return BenchReport(
        tuple(rows),
        _loglog_slope(durs, [r.gcd_method_ops for r in rows]),
        _loglog_slope(durs, [r.oracle_ops for r in rows]),
    )
