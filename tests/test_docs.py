"""Smoke tests for the documented entry points outside the package: the
end-to-end reproduction script and the README's "Library" example."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from coincide import Decision

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_results_script_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_results.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def _show(value) -> str:
    """Render a result the way the README's comments write it."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ")"
    if isinstance(value, Decision):
        return f"Decision(coincides={value.coincides}, witness={value.witness}, via={value.via})"
    return str(value)


def test_readme_library_example_matches_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(block, ns)
    commented = [line.partition("#") for line in block.splitlines() if "#" in line]
    assert [comment.strip() for _, _, comment in commented] == [
        "Decision(coincides=True, witness=[37, 38), via=(2, 5))",
        "[23, 24)",
        "([23, 24), [30, 31), [37, 38))",
    ]
    for expr, _, comment in commented:
        assert _show(eval(expr, ns)) == comment.strip()
