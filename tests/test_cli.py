from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import deque
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coincide.bench
import coincide.cli
import coincide.coincidence
from coincide import (
    CoincideError,
    Interval,
    build_gcd_partition,
    create_network,
    decide,
    enumerate_coincidences,
    fired_theorems,
    first_coincidence,
    oracle_decide,
    resolve_component,
    sequence,
)
from coincide.bench import run_bench
from coincide.cli import _parse_sequence, _to_json, main
from coincide.coincidence import _ShiftKernel
from .conftest import sequence_pairs
from .refimpl import scan_first_window, walk_sequence

ROOT = Path(__file__).resolve().parents[1]
QUERIES = ROOT / "queries"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="query.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def factory_path() -> str:
    return str(QUERIES / "factory.json")


def test_check_factory_json(capsys, factory_path):
    code, out, _ = run(capsys, "check", "--input", factory_path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coincides"] is True
    assert doc["partition"] == {"g": 1, "R": 7, "S": 8}
    assert doc["cycle"] == 56
    assert doc["method"] == "gcd-partition"
    assert doc["witness"] == {"start": 37, "end": 38}


def test_check_modified_factory(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--input",
        str(QUERIES / "factory_short_rest.json"),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coincides"] is False
    assert doc["witness"] is None


def test_check_verdict_not_in_exit_code(capsys):
    code, _, _ = run(capsys, "check", "--input", str(QUERIES / "factory_short_rest.json"))
    assert code == 0


def test_check_text_output(capsys, factory_path):
    code, out, _ = run(capsys, "check", "--input", factory_path)
    assert code == 0
    assert "coincides: true" in out
    assert "partition: g=1 R=7 S=8" in out
    assert "cycle: 56 days" in out


def test_check_flag_overrides(capsys, factory_path):
    code, out, _ = run(
        capsys, "check", "--input", factory_path, "--p", "5", "--q", "Working", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["coincides"] is True


def test_check_out_of_range_names_bound(capsys, tmp_path):
    doc = json.loads((QUERIES / "factory.json").read_text())
    doc["q"] = 5
    code, _, err = run(capsys, "check", "--input", write_doc(tmp_path, doc), "--format", "json")
    assert code == 2
    assert "0..1" in err


def test_check_rejects_bad_duration(capsys, tmp_path):
    doc = {
        "x": {"name": "x", "components": [{"name": "a", "dur": 0}]},
        "y": {"name": "y", "components": [{"name": "b", "dur": 1}]},
        "p": 0,
        "q": 0,
    }
    code, _, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert "duration" in err


@pytest.mark.parametrize("dur", [2.5, True, "3"])
def test_check_rejects_non_integer_duration(capsys, tmp_path, dur):
    doc = {
        "x": {"name": "x", "components": [{"name": "a", "dur": dur}]},
        "y": {"name": "y", "components": [{"name": "b", "dur": 1}]},
        "p": 0,
        "q": 0,
    }
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "component 0: duration must be a positive integer" in err


@pytest.mark.parametrize("name", [None, 3, ["a"]], ids=["null", "number", "list"])
def test_check_rejects_non_string_component_name(capsys, tmp_path, name):
    doc = {
        "x": {"name": "x", "components": [{"name": "a", "dur": 1}, {"name": name, "dur": 2}]},
        "y": {"name": "y", "components": [{"name": "b", "dur": 1}]},
        "p": "None",
        "q": 0,
    }
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "x.components[1].name must be a string" in err


@pytest.mark.parametrize("name", [None, 3, ["a"]], ids=["null", "number", "list"])
def test_check_rejects_non_string_sequence_name(capsys, tmp_path, name):
    doc = {
        "x": {"name": "x", "components": [{"name": "a", "dur": 1}]},
        "y": {"name": name, "components": [{"name": "b", "dur": 1}]},
        "p": 0,
        "q": 0,
    }
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "y.name must be a string" in err


def _sides(x_comps, y_comps, x_name="x", y_name="y"):
    return {
        "x": {"name": x_name, "components": x_comps},
        "y": {"name": y_name, "components": y_comps},
        "p": 0,
        "q": 0,
    }


_BAD_NAME_Y = [{"name": 7, "dur": 1}]


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            _sides([{"dur": 1}, 5, {"dur": 0}, {"name": None, "dur": 1}], _BAD_NAME_Y),
            "x.components[1] must be an object with 'dur'",
            id="non-object-component",
        ),
        pytest.param(
            _sides([{"dur": 0}, {"name": "a", "dur": 1}, {"name": 3}], _BAD_NAME_Y),
            "x.components[2] must be an object with 'dur'",
            id="missing-dur-after-bad-dur",
        ),
        pytest.param(
            _sides([{"dur": 0}, {"name": 3, "dur": 1}, "c"], _BAD_NAME_Y),
            "x.components[1].name must be a string, got 3",
            id="non-string-name-after-bad-dur",
        ),
        pytest.param(
            _sides([{"name": None, "dur": 1}, []], _BAD_NAME_Y),
            "x.components[0].name must be a string, got None",
            id="bad-name-before-non-object",
        ),
        pytest.param(
            _sides([{"dur": 1}, {"dur": 0}, {"dur": -1}], _BAD_NAME_Y),
            "component 1: duration must be a positive integer, got 0",
            id="dur-zero-x-bad-name-y",
        ),
        pytest.param(
            _sides([{"dur": 2}, {"dur": True}, {"dur": 0}], _BAD_NAME_Y),
            "component 1: duration must be a positive integer, got True",
            id="dur-true-x-bad-name-y",
        ),
        pytest.param(
            _sides([{"dur": 2.5}, {"dur": 0}], _BAD_NAME_Y),
            "component 0: duration must be a positive integer, got 2.5",
            id="dur-float-x-bad-name-y",
        ),
        pytest.param(
            _sides([{"dur": 1}, {"dur": 1}, {"dur": "3"}, {"dur": None}], _BAD_NAME_Y),
            "component 2: duration must be a positive integer, got '3'",
            id="dur-string-x-bad-name-y",
        ),
        pytest.param(
            _sides([{"dur": 1}], [{"dur": 1}, {"dur": 0}], y_name=5),
            "y.name must be a string, got 5",
            id="bad-sequence-name-before-bad-dur",
        ),
        pytest.param(
            _sides([], _BAD_NAME_Y),
            "sequence 'x' has no components",
            id="empty-components",
        ),
        pytest.param(
            _sides({"dur": 1}, _BAD_NAME_Y, x_name=5),
            "x.components must be a list",
            id="components-not-a-list-before-bad-name",
        ),
    ],
)
def test_input_errors_report_the_first_offender(capsys, tmp_path, doc, message):
    # Every document holds several offenders; the first one in document
    # order wins, and a component's shape and name are checked, across
    # the whole side, before any duration.
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_missing_names_default_to_side_and_index(capsys, tmp_path):
    doc = {
        "x": {"components": [{"dur": 1}, {"dur": 2}]},
        "y": {"components": [{"dur": 3}]},
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, "network", "--input", path, "--side", "x", "--index", "1")
    assert code == 0
    assert out.startswith("network: x[1] 'c1' on slot grid g=3\n")
    code, out, _ = run(capsys, "check", "--input", path, "--p", "c1", "--q", "c0", "--format", "json")
    assert code == 0
    assert json.loads(out)["coincides"] is True


_DURS = st.one_of(
    st.integers(min_value=1, max_value=2**70),
    st.sampled_from([0, -1, True, 2.5, "3", None]),
)
_COMPONENT = st.one_of(
    st.fixed_dictionaries({"dur": _DURS}),
    st.fixed_dictionaries({"name": st.text(max_size=3), "dur": _DURS}),
    st.fixed_dictionaries({"name": st.sampled_from([None, 3, True, ["a"]]), "dur": _DURS}),
    st.fixed_dictionaries({"name": st.text(max_size=3)}),
    st.sampled_from([5, "c", [], None]),
)


def _parsed(parse, comps):
    try:
        return parse({"name": "s", "components": comps}, "x")
    except (ValueError, CoincideError) as exc:
        return type(exc), str(exc)


@given(
    st.one_of(
        st.lists(st.fixed_dictionaries({"dur": st.integers(1, 50)}), max_size=40),
        st.lists(_COMPONENT, max_size=8),
    )
)
@example([{"dur": 1}, {"name": "b", "dur": 2}, {"dur": 3}])
@example([{"dur": 0}, {"dur": 1}])
@example([{"dur": 1}, {"name": None, "dur": 1}])
@example([{"dur": 0}, {"name": 3, "dur": 1}])
@example([])
def test_components_parse_as_the_per_component_walk_does(comps):
    # Named, nameless and partly named documents give the same spec, or
    # the same first-offender error, as checking one component at a time
    assert _parsed(_parse_sequence, comps) == _parsed(walk_sequence, comps)


class _WatchedComponent(dict):
    """A component that counts the ``key in component`` tests made on it."""

    tests = 0

    def __contains__(self, key):
        type(self).tests += 1
        return super().__contains__(key)


def test_nameless_components_parse_without_a_per_component_walk(monkeypatch):
    monkeypatch.setattr(_WatchedComponent, "tests", 0)
    comps = [_WatchedComponent(dur=i % 16 + 1) for i in range(2000)]
    spec = _parse_sequence({"name": "s", "components": comps}, "x")
    assert spec.names == tuple(f"c{i}" for i in range(2000))
    assert _WatchedComponent.tests == 0


def test_check_rejects_garbage_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_check_invalid_json_message(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "invalid JSON input" in err


def test_boolean_component_key_is_input_error(capsys, tmp_path):
    doc = json.loads((QUERIES / "factory.json").read_text())
    doc["p"] = True
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "partition"])
@pytest.mark.parametrize("unit", [5, ["days"], True, None], ids=["number", "list", "bool", "null"])
def test_non_string_unit_is_input_error(capsys, tmp_path, command, unit):
    doc = json.loads((QUERIES / "factory.json").read_text())
    doc["unit"] = unit
    code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: unit must be a string, got {unit!r}\n"


@pytest.mark.parametrize("command", ["check", "partition"])
def test_missing_unit_is_valid(capsys, tmp_path, command):
    doc = json.loads((QUERIES / "factory.json").read_text())
    del doc["unit"]
    code, out, _ = run(capsys, command, "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert "cycle: 56\n" in out


def test_deeply_nested_document_is_input_error(capsys, tmp_path):
    # Far deeper than any recursion limit: the parser must not crash.
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text('{"x": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: input document is nested too deeply\n"


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--input", "/nonexistent/query.json")
    assert code == 2


def test_witness_factory(capsys, factory_path):
    code, out, _ = run(capsys, "witness", "--input", factory_path, "--format", "json")
    assert code == 0
    assert json.loads(out)["witness"] == {"start": 23, "end": 24}


def test_witness_absent_still_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--input",
        str(QUERIES / "factory_short_rest.json"),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coincides"] is False and doc["witness"] is None


def test_enumerate_factory(capsys, factory_path):
    code, out, _ = run(capsys, "enumerate", "--input", factory_path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "gcd-partition"
    assert doc["windows"] == [
        {"start": 23, "end": 24},
        {"start": 30, "end": 31},
        {"start": 37, "end": 38},
    ]
    assert doc["comparisons"] == 56


@pytest.mark.parametrize("name", sorted(p.name for p in QUERIES.glob("*.json")))
def test_enumerate_equals_projection(capsys, name):
    path = QUERIES / name
    code, out, _ = run(capsys, "enumerate", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    query = json.loads(path.read_text())
    x, y = (
        sequence(side, *[c["dur"] for c in query[side]["components"]],
                 component_names=[c["name"] for c in query[side]["components"]])
        for side in ("x", "y")
    )
    rep = oracle_decide(x, y, resolve_component(x, query["p"]), resolve_component(y, query["q"]))
    spans = [{"start": w.start, "end": w.end} for w in rep.windows]
    assert doc["coincides"] == rep.decision.coincides
    assert doc["witness"] == (spans[0] if spans else None)
    assert doc["windows"] == spans
    assert doc["comparisons"] == rep.comparisons


def test_enumerate_huge_cycle_answers_from_the_kernel(capsys, tmp_path):
    # Coprime periods near 10^9: the joint cycle is about 10^18 units, far
    # too long to project, but it holds a single shared window.
    path = write_doc(tmp_path, _long_component_doc((1, 999_999_999), (1, 999_999_998)))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", "--input", path, "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["windows"] == [{"start": 0, "end": 1}]
    assert doc["comparisons"] == 999_999_999_000_000_000
    assert elapsed < 2.0


_ENDPOINTS = st.integers(min_value=0, max_value=2**80)


@given(st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), max_size=12))
@example([])
@example([(23, 24)])
@example([(2**63 - 1, 2**63), (2**64, 2**70 + 1)])
def test_enumerate_renders_windows_as_the_stdlib_does(spans):
    # Whatever windows the kernel's walk yields, the templated windows block is
    # the stdlib's JSON of one dict per window, and the text line is the
    # per-window f-string rendering
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ShiftKernel, "walk", lambda self: iter(spans))
        for fmt in ("json", "text"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["enumerate", "--input", str(QUERIES / "factory.json"), "--format", fmt]) == 0
            out[fmt] = buf.getvalue()
    windows = [{"start": s, "end": e} for s, e in spans]
    doc = {
        "coincides": bool(windows),
        "witness": windows[0] if windows else None,
        "windows": windows,
        "partition": {"g": 1, "R": 7, "S": 8},
        "cycle": 56,
        "method": "gcd-partition",
        "comparisons": 56,
    }
    assert out["json"] == json.dumps(doc, indent=2) + "\n"
    line = " ".join(f"[{w['start']}, {w['end']})" for w in windows)
    witness = f"[{windows[0]['start']}, {windows[0]['end']})" if windows else "none"
    assert out["text"] == (
        f"coincides: {json.dumps(bool(windows))}\nwitness: {witness}\n"
        f"windows: {line if line else '(none)'}\npartition: g=1 R=7 S=8\n"
        "cycle: 56 days\nmethod: gcd-partition\ncomparisons: 56\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_builds_no_interval_per_window(monkeypatch, fmt):
    intervals = []
    post_init = Interval.__post_init__

    def counted_post_init(self):
        intervals.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted_post_init)
    many = Path(__file__).resolve().parent / "golden" / "many_windows.json"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["enumerate", "--input", str(many), "--format", fmt]) == 0
    assert buf.getvalue().count("[" if fmt == "text" else '"start"') > 200
    assert len(intervals) <= 1


@pytest.mark.parametrize("command", ["check", "witness", "enumerate"])
def test_each_query_builds_one_grid(monkeypatch, command):
    partitions = []
    build = coincide.coincidence.build_gcd_partition

    def counted_build(x, y):
        partitions.append((x, y))
        return build(x, y)

    for module in (coincide.coincidence, coincide.cli):
        monkeypatch.setattr(module, "build_gcd_partition", counted_build)
    many = Path(__file__).resolve().parent / "golden" / "many_windows.json"
    with redirect_stdout(io.StringIO()):
        assert main([command, "--input", str(many), "--format", "json"]) == 0
    assert len(partitions) == 1


@settings(deadline=None, max_examples=60)
@given(sequence_pairs(max_components=4, max_dur=10))
def test_check_fires_the_rules_of_the_network_entries_at_via(pair):
    x, y = pair
    g = build_gcd_partition(x, y).slot_dur
    doc = {side: {"components": [{"dur": d} for d in spec.durs]} for side, spec in (("x", x), ("y", y))}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "query.json")
        Path(path).write_text(json.dumps(doc))
        for p in range(x.length):
            for q in range(y.length):
                k = _ShiftKernel(x, y, p, q)
                d = k.decision()
                assert d == decide(x, y, p, q)
                if not d.coincides:
                    continue
                r, s = d.via
                ex = {e.slot: e for e in create_network(x, g, p).entries}[r]
                ey = {e.slot: e for e in create_network(y, g, q).entries}[s]
                assert k.via_entries(d.via) == (ex, ey)
                buf = io.StringIO()
                with redirect_stdout(buf):
                    argv = ["check", "--input", path, "--p", str(p), "--q", str(q), "--format", "json"]
                    assert main(argv) == 0
                assert json.loads(buf.getvalue())["fired"] == sorted(fired_theorems(ex, ey, g))


def test_enumerate_production_line(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--input", str(QUERIES / "production_line.json"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coincides"] is True
    assert doc["windows"] == [{"start": 3, "end": 4}]


def test_partition_command(capsys, factory_path):
    code, out, _ = run(capsys, "partition", "--input", factory_path)
    assert code == 0
    assert "g=1 R=7 S=8" in out


def test_network_command(capsys, factory_path):
    code, out, _ = run(capsys, "network", "--input", factory_path, "--side", "y", "--index", "1")
    assert code == 0
    assert "slot 5: started-by" in out
    assert "slot 6: contains" in out
    assert "slot 7: finished-by" in out
    assert "flag: true" in out


def test_network_json(capsys):
    code, out, _ = run(
        capsys,
        "network",
        "--input",
        str(QUERIES / "production_line.json"),
        "--side",
        "x",
        "--index",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [
        {"slot": 0, "rel": "starts", "left_gap": 0, "right_gap": 1, "common_dur": 3}
    ]
    assert doc["flag"] is False


class _ByteCounter(io.TextIOBase):
    """A stdout that keeps its character count and the first and last 200
    characters, nothing else."""

    def __init__(self):
        self.count = 0
        self.head = self.tail = ""

    def write(self, s):
        self.count += len(s)
        if len(self.head) < 200:
            self.head = (self.head + s)[:200]
        self.tail = (self.tail + s)[-200:]
        return len(s)


def _cli_env() -> dict:
    """The environment for a ``python -m coincide.cli`` child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _cli_child(argv, path: str) -> tuple[int, _ByteCounter, int]:
    """Run ``python -m coincide.cli`` on a document as a child process: its
    exit code, its stdout in a ``_ByteCounter`` and its peak RSS in KiB."""
    sink = _ByteCounter()
    with subprocess.Popen(
        [sys.executable, "-m", "coincide.cli", *argv, "--input", path],
        stdout=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        for chunk in iter(lambda: proc.stdout.read(2**20), b""):
            sink.write(chunk.decode("ascii"))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, sink, usage.ru_maxrss


def _cli_rss_growth(tmp_path, argv, durs_x, durs_y) -> tuple[int, _ByteCounter, int]:
    """``_cli_child`` on ``x = durs_x``, ``y = durs_y``, with its peak RSS
    less that of the same command on a tiny document, in bytes."""
    tiny = write_doc(tmp_path, _long_component_doc((1, 1), (2, 1)), "tiny.json")
    tiny_code, _, tiny_peak = _cli_child(argv, tiny)
    assert tiny_code == 0
    code, sink, peak = _cli_child(argv, write_doc(tmp_path, _long_component_doc(durs_x, durs_y)))
    return code, sink, (peak - tiny_peak) * 1024


def _million_slot_network(fmt: str, n: int):
    """The expected output, piece by piece, for x[0] = [0, n) on g = 1."""
    rels = (
        "started-by" if s == 0 else "finished-by" if s == n - 1 else "contains" for s in range(n)
    )
    if fmt == "text":
        yield "network: x[0] 'a0' on slot grid g=1\n"
        for s, rel in enumerate(rels):
            yield f"  slot {s}: {rel}  left_gap=0 right_gap=0 common=1\n"
        yield "flag: true\n"
        return
    yield '{\n  "sequence": "x",\n  "component": 0,\n  "g": 1,\n  "entries": ['
    for s, rel in enumerate(rels):
        yield (
            f'{"," if s else ""}\n    {{\n      "slot": {s},\n      "rel": "{rel}",\n'
            f'      "left_gap": 0,\n      "right_gap": 0,\n      "common_dur": 1\n    }}'
        )
    yield '\n  ],\n  "flag": true\n}\n'


def _network_to_sink(path: str, fmt: str) -> tuple[int, _ByteCounter]:
    sink = _ByteCounter()
    with redirect_stdout(sink):
        code = main(["network", "--input", path, "--side", "x", "--index", "0", "--format", fmt])
    return code, sink


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_network_of_a_million_slots_is_written_in_full(tmp_path, fmt):
    n = 10**6
    code, sink = _network_to_sink(write_doc(tmp_path, _long_component_doc((n, 1), (2, 1))), fmt)
    assert code == 0
    assert sink.count == sum(map(len, _million_slot_network(fmt, n)))
    assert sink.head == "".join(islice(_million_slot_network(fmt, n), 8))[:200]
    assert sink.tail == "".join(deque(_million_slot_network(fmt, n), maxlen=8))[-200:]


def test_network_of_a_million_slots_holds_a_few_megabytes(tmp_path):
    # x[0] covers 10^6 one-unit slots: its JSON output alone is 125 MB, so
    # it must leave while it is written.  Text goes through the same loop.
    argv = ["network", "--side", "x", "--index", "0", "--format", "json"]
    code, sink, growth = _cli_rss_growth(tmp_path, argv, (10**6, 1), (2, 1))
    assert code == 0 and sink.count > 10**8
    assert growth < 4 * 2**20


def test_million_slot_reference_is_stdlib_indented_json():
    small = "".join(_million_slot_network("json", 3))
    assert small == _to_json(json.loads(small)) + "\n"


def _enumerate_long_x(fmt: str, n: int):
    """The expected ``enumerate`` output, piece by piece, for x = (n, 1) and
    y = (3, 2), p = q = 0, on g = 1: x[0] = [xs, xs + n) in each of its
    five periods against every y[0] = [5u, 5u + 3) that it overlaps."""
    windows = (
        (max(xs, 5 * u), min(xs + n, 5 * u + 3))
        for xs in range(0, 5 * (n + 1), n + 1)
        for u in range((xs - 3) // 5 + 1, (xs + n - 1) // 5 + 1)
    )
    s, e = next(windows)
    cycle = 5 * (n + 1)
    if fmt == "text":
        yield f"coincides: true\nwitness: [{s}, {e})\nwindows: [{s}, {e})"
        for s, e in windows:
            yield f" [{s}, {e})"
        yield f"\npartition: g=1 R={n + 1} S=5\ncycle: {cycle}\nmethod: gcd-partition\ncomparisons: {cycle}\n"
        return
    yield f'{{\n  "coincides": true,\n  "witness": {{\n    "start": {s},\n    "end": {e}\n  }},\n  "windows": ['
    yield f'\n    {{\n      "start": {s},\n      "end": {e}\n    }}'
    for s, e in windows:
        yield f',\n    {{\n      "start": {s},\n      "end": {e}\n    }}'
    yield (
        f'\n  ],\n  "partition": {{\n    "g": 1,\n    "R": {n + 1},\n    "S": 5\n  }},\n'
        f'  "cycle": {cycle},\n  "method": "gcd-partition",\n  "comparisons": {cycle}\n}}\n'
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_long_x_reference_is_the_cli_output(capsys, tmp_path, fmt):
    path = write_doc(tmp_path, _long_component_doc((7, 1), (3, 2)))
    code, out, _ = run(capsys, "enumerate", "--input", path, "--format", fmt)
    assert code == 0
    assert out == "".join(_enumerate_long_x(fmt, 7))
    if fmt == "json":
        assert out == _to_json(json.loads(out)) + "\n"


def _enumerate_long_x_digest(fmt: str, n: int) -> tuple[int, str, str]:
    """Character count and first and last 200 characters of the expected
    output, as a ``_ByteCounter`` keeps them."""
    sink, pieces = _ByteCounter(), _enumerate_long_x(fmt, n)
    for chunk in iter(lambda: "".join(islice(pieces, 1024)), ""):
        sink.write(chunk)
    return sink.count, sink.head, sink.tail


def _enumerate_to_sink(path: str, fmt: str) -> tuple[int, tuple[int, str, str]]:
    sink = _ByteCounter()
    with redirect_stdout(sink):
        code = main(["enumerate", "--input", path, "--format", fmt])
    return code, (sink.count, sink.head, sink.tail)


def test_enumerate_of_a_million_windows_is_written_in_full_as_text(tmp_path):
    n = 10**6  # 1,000,002 windows
    code, digest = _enumerate_to_sink(write_doc(tmp_path, _long_component_doc((n, 1), (3, 2))), "text")
    assert code == 0
    assert digest == _enumerate_long_x_digest("text", n)


def test_enumerate_of_a_million_windows_holds_a_few_megabytes(tmp_path):
    # 1,000,002 windows are 45 MB of JSON, which must leave while it is
    # written: the walk and the writes hold one chunk of windows at a time.
    # Text goes through the same loop and is checked in process, above.
    n = 10**6
    code, sink, growth = _cli_rss_growth(tmp_path, ["enumerate", "--format", "json"], (n, 1), (3, 2))
    assert code == 0
    assert (sink.count, sink.head, sink.tail) == _enumerate_long_x_digest("json", n)
    assert growth < 4 * 2**20


@pytest.mark.parametrize("command", [["enumerate"], ["network", "--side", "x", "--index", "0"]])
def test_a_reader_that_leaves_early_ends_the_run_with_exit_1_and_no_message(tmp_path, command):
    # Megabytes of output into a pipe whose reader closes after 100 bytes.
    path = write_doc(tmp_path, _long_component_doc((10**5, 1), (3, 2)))
    with subprocess.Popen(
        [sys.executable, "-m", "coincide.cli", *command, "--input", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")


def test_network_bad_index(capsys, factory_path):
    code, _, err = run(capsys, "network", "--input", factory_path, "--side", "y", "--index", "9")
    assert code == 2


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "42")
    assert code == 0
    assert "verdict mismatches: 0" in out
    assert "result: PASS" in out


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--trials", "30", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "--trials", "30", "--seed", "5")
    assert out1 == out2


def test_verify_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--max-exponent", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max_dur,gcd_method_ops,oracle_ops"
    assert lines[1].startswith("16,")
    assert lines[1].endswith(",240")


def test_bench_json_round_trip(capsys):
    code, out, _ = run(capsys, "bench", "--max-exponent", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(json.dumps(doc))
    assert doc["rows"][0]["oracle_ops"] == 240


def test_bench_small_exponent(capsys):
    code, _, err = run(capsys, "bench", "--max-exponent", "3")
    assert code == 2
    assert err == "error: max exponent must be >= 4, got 3\n"


@pytest.mark.parametrize("exponent", [21, 30])
def test_bench_large_exponent_is_a_usage_error(capsys, monkeypatch, exponent):
    # Fail fast instead of allocating 2^N components if the bound is missing.
    def refuse(*args, **kwargs):
        raise AssertionError("bench built an instance for an exponent it must reject")

    monkeypatch.setattr(coincide.bench, "sequence", refuse)
    code, out, err = run(capsys, "bench", "--max-exponent", str(exponent))
    assert (code, out, err) == (2, "", f"error: max exponent must be <= 20, got {exponent}\n")


@pytest.mark.parametrize("exponent", [10.0, True, "10", None])
def test_bench_rejects_a_non_integer_exponent(exponent):
    with pytest.raises(ValueError, match="max exponent must be an integer"):
        run_bench(exponent)


def test_result_document_round_trips(capsys, factory_path):
    _, out, _ = run(capsys, "check", "--input", factory_path, "--format", "json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_check_deterministic(capsys, factory_path):
    _, out1, _ = run(capsys, "check", "--input", factory_path, "--format", "json")
    _, out2, _ = run(capsys, "check", "--input", factory_path, "--format", "json")
    assert out1 == out2


def test_ambiguous_name_is_input_error(capsys, tmp_path):
    doc = {
        "x": {"name": "x", "components": [{"name": "A", "dur": 1}, {"name": "A", "dur": 2}]},
        "y": {"name": "y", "components": [{"name": "B", "dur": 1}]},
        "p": "A",
        "q": "B",
    }
    code, _, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert "ambiguous" in err


def _long_component_doc(durs_x, durs_y):
    return {
        "x": {"name": "x", "components": [{"name": f"a{i}", "dur": d} for i, d in enumerate(durs_x)]},
        "y": {"name": "y", "components": [{"name": f"b{i}", "dur": d} for i, d in enumerate(durs_y)]},
        "p": 0,
        "q": 0,
    }


def test_check_long_component_is_constant_time(capsys, tmp_path):
    # g = 1 and a 10^6-unit component: a per-slot network walk here took
    # seconds; the residue-shift verdict and the two fired entries do not.
    durs_x, durs_y = (10**6, 1), (2, 1)
    path = write_doc(tmp_path, _long_component_doc(durs_x, durs_y))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "check", "--input", path, "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["coincides"] is True
    # The witness is exactly the intersection of the x[0] and y[0]
    # incidences that hold its start; both components start their period.
    s, e = doc["witness"]["start"], doc["witness"]["end"]
    xs = s // sum(durs_x) * sum(durs_x)
    ys = s // sum(durs_y) * sum(durs_y)
    assert (max(xs, ys), min(xs + durs_x[0], ys + durs_y[0])) == (s, e)
    assert elapsed < 2.0


def test_witness_long_components_agrees_with_projection(capsys, tmp_path):
    # Two 3000-unit components on coprime periods: an all-entry-pairs scan
    # here examined 9 million pairs.
    durs_x, durs_y = (3000, 1), (3000, 2)
    path = write_doc(tmp_path, _long_component_doc(durs_x, durs_y))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--input", path, "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    first = oracle_decide(sequence("x", *durs_x), sequence("y", *durs_y), 0, 0).windows[0]
    assert json.loads(out)["witness"] == {"start": first.start, "end": first.end}
    assert elapsed < 2.0


def test_witness_at_a_billion_units_is_fast(capsys, tmp_path):
    # x[1] = [5, 10^9 + 5) and y[1] = [7, 10^9 + 8) with g = 3: about
    # 6.7 * 10^8 windows per cycle, which a per-window scan takes minutes
    # over.  The first incidences meet first, and no incidence of y[1]
    # covers [5, 7), so the earliest window starts at 7, not the origin.
    path = write_doc(tmp_path, _long_component_doc((5, 10**9), (7, 10**9 + 1)) | {"p": 1, "q": 1})
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--input", path, "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["witness"] == {"start": 7, "end": 10**9 + 5}
    assert elapsed < 2.0


def test_witness_equals_the_window_scan_on_the_same_shape_cut_down(capsys, tmp_path):
    durs_x, durs_y = (5, 10**5), (7, 10**5 + 1)
    path = write_doc(tmp_path, _long_component_doc(durs_x, durs_y) | {"p": 1, "q": 1})
    code, out, _ = run(capsys, "witness", "--input", path, "--format", "json")
    assert code == 0
    first = scan_first_window(sequence("x", *durs_x), sequence("y", *durs_y), 1, 1)
    assert json.loads(out)["witness"] == {"start": first.start, "end": first.end}


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_witness_and_enumerate_answer_on_consecutive_fibonacci_periods(capsys, tmp_path):
    # Periods F(1001) and F(1000), 209 digits each: the Euclid-like jump to
    # the first period that holds a window takes about a thousand levels,
    # more than Python's default recursion limit.
    durs_x, durs_y = (1, _fibonacci(1001) - 1), (7, 1, _fibonacci(1000) - 8)
    x, y = sequence("x", *durs_x), sequence("y", *durs_y)
    first = scan_first_window(x, y, 0, 1)
    assert first_coincidence(x, y, 0, 1) == first
    assert enumerate_coincidences(x, y, 0, 1)[0] == first
    path = write_doc(tmp_path, _long_component_doc(durs_x, durs_y) | {"q": 1})
    expected = {"start": first.start, "end": first.end}
    for command in ("witness", "enumerate"):
        code, out, _ = run(capsys, command, "--input", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["witness"] == expected


def _named_doc(x_names, y_names, p, q):
    return {
        "x": {"name": "x", "components": [{"name": n, "dur": i + 1} for i, n in enumerate(x_names)]},
        "y": {"name": "y", "components": [{"name": n, "dur": i + 2} for i, n in enumerate(y_names)]},
        "p": p,
        "q": q,
    }


def test_non_ascii_digit_flag_is_a_name_not_an_index(capsys, tmp_path):
    # U+0661 ARABIC-INDIC DIGIT ONE passes str.isdigit() but is not an index.
    path = write_doc(tmp_path, _named_doc(["a", "b"], ["c"], 0, 0))
    code, out, err = run(capsys, "check", "--input", path, "--p", "١", "--format", "json")
    assert code == 2
    assert out == ""
    assert "no component named '١'" in err
    path = write_doc(tmp_path, _named_doc(["a", "١", "b"], ["c"], 0, 0), "named.json")
    _, by_name, _ = run(capsys, "check", "--input", path, "--p", "١", "--format", "json")
    _, by_index, _ = run(capsys, "check", "--input", path, "--p", "1", "--format", "json")
    assert by_name == by_index


def test_non_ascii_digit_document_field_selects_by_name(capsys, tmp_path):
    # U+00B2 SUPERSCRIPT TWO: isdigit() is true, int() rejects it.
    named = write_doc(tmp_path, _named_doc(["a", "b"], ["c", "²"], 0, "²"))
    indexed = write_doc(tmp_path, _named_doc(["a", "b"], ["c", "²"], 0, 1), "indexed.json")
    code, by_name, err = run(capsys, "witness", "--input", named, "--format", "json")
    assert code == 0, err
    _, by_index, _ = run(capsys, "witness", "--input", indexed, "--format", "json")
    assert by_name == by_index


@pytest.mark.parametrize("key", ["1", "-1", "0"])
def test_ascii_integer_strings_are_indices(capsys, tmp_path, key):
    path = write_doc(tmp_path, _named_doc(["a", "b"], ["c"], key, 0))
    code, _, err = run(capsys, "check", "--input", path)
    if key == "-1":
        assert code == 2 and "0..1" in err
    else:
        assert code == 0, err


def test_shared_parser_keeps_no_flags_between_calls(capsys, tmp_path):
    path = write_doc(tmp_path, _named_doc(["a", "b"], ["c", "d"], 0, 0))
    _, flagged, _ = run(capsys, "witness", "--input", path, "--p", "1", "--q", "1", "--format", "json")
    code, from_doc, _ = run(capsys, "witness", "--input", path, "--format", "json")
    _, explicit, _ = run(capsys, "witness", "--input", path, "--p", "0", "--q", "0", "--format", "json")
    assert code == 0
    assert from_doc == explicit
    assert from_doc != flagged


@pytest.mark.parametrize(
    "argv",
    [[], ["check"], ["check", "--input", str(QUERIES / "factory.json"), "--format", "yaml"]],
    ids=["no-command", "no-input", "bad-format"],
)
def test_usage_errors_exit_2_after_a_successful_call(capsys, factory_path, argv):
    assert run(capsys, "check", "--input", factory_path)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert run(capsys, "check", "--input", factory_path)[0] == 0


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) + 1)
    | st.floats()
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@example([])
@example({})
@example({"": [{}, [], [[]]], "\u00e9\u2603\U0001d11e": "\x00\t\n\"\\\ud800"})
@example([1e300, -0.0, float("nan"), float("inf"), 2**64, -(2**64)])
def test_to_json_equals_stdlib_indented_dumps(value):
    assert _to_json(value) == json.dumps(value, indent=2)


_QUERY_PATHS = sorted(str(p) for p in QUERIES.glob("*.json"))


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, "--input", path, *extra]
        for path in _QUERY_PATHS
        for cmd, extra in [
            ("check", []),
            ("witness", []),
            ("enumerate", []),
            ("partition", []),
            ("network", ["--side", "x", "--index", "0"]),
            ("network", ["--side", "y", "--index", "1"]),
        ]
    ]
    + [["verify", "--trials", "5"], ["bench", "--max-exponent", "5"]],
    ids=lambda argv: "-".join(Path(a).stem for a in argv if a != "--input"),
)
def test_json_output_is_stdlib_indented_json(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("path", _QUERY_PATHS, ids=lambda p: Path(p).stem)
def test_queries_leave_no_reference_cycles(capsys, path):
    # Cyclic garbage is freed only by the collector: a long-lived caller
    # would hold it until a full collection, so it raises peak memory.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for op in ("check", "witness", "enumerate"):
            run(capsys, op, "--input", path, "--format", "json")
            gc.collect()
            assert run(capsys, op, "--input", path, "--format", "json")[0] == 0
            assert gc.collect() == 0, op
    finally:
        if was_enabled:
            gc.enable()
