"""Byte-for-byte CLI output against recorded golden files.

Each case is one CLI invocation; its expected stdout is
``tests/golden/<case>.txt``.  The cases cover every query command and
``partition`` on every ``queries/*.json`` document, ``network`` on every
side and component index of them, ``witness`` on ``golden/many_windows.json``
(hundreds of windows per cycle, the earliest one neither at the origin nor
at the first slot difference; once from each side's incidence), every
query command on ``golden/dense.json`` (2,000 and 2,101 components of
durations ``(7919 * i) % 16 + 1`` and ``(104729 * j + 5) % 13 + 1``,
coprime periods of 17,000 and 14,727 units, the queried pair far from
the origin),
``verify --trials 200 --seed 42`` and ``bench --max-exponent 10``, each in
text and JSON.

After a deliberate output change, rewrite the files with
``PYTHONPATH=src python -m tests.test_golden`` and review the diff.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from coincide.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted((ROOT / "queries").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for fmt in FORMATS:
            for cmd in ("check", "witness", "enumerate", "partition"):
                cases[f"{path.stem}.{cmd}.{fmt}"] = [cmd, "--input", str(path), "--format", fmt]
            for side in ("x", "y"):
                for idx in range(len(doc[side]["components"])):
                    cases[f"{path.stem}.network-{side}{idx}.{fmt}"] = [
                        "network", "--input", str(path), "--side", side,
                        "--index", str(idx), "--format", fmt,
                    ]
    many = str(GOLDEN / "many_windows.json")
    for fmt in FORMATS:
        # The document's own pair starts its earliest window at an x
        # incidence; Load/Clean starts it at a y incidence.
        cases[f"many_windows.witness.{fmt}"] = ["witness", "--input", many, "--format", fmt]
        cases[f"many_windows.witness-p0-q2.{fmt}"] = [
            "witness", "--input", many, "--p", "0", "--q", "2", "--format", fmt,
        ]
        for cmd in ("check", "witness", "enumerate"):
            cases[f"dense.{cmd}.{fmt}"] = [cmd, "--input", str(GOLDEN / "dense.json"), "--format", fmt]
        cases[f"verify-200-s42.{fmt}"] = ["verify", "--trials", "200", "--seed", "42", "--format", fmt]
        cases[f"bench-10.{fmt}"] = ["bench", "--max-exponent", "10", "--format", fmt]
    return cases


CASES = _cases()


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(_stdout(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
