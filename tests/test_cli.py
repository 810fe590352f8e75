from __future__ import annotations

import gc
import io
import json
import time
import tracemalloc
from collections import deque
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coincide import oracle_decide, resolve_component, sequence
from coincide.cli import _to_json, main
from .refimpl import scan_first_window

QUERIES = Path(__file__).resolve().parents[1] / "queries"


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
    doc = json.load(open(QUERIES / "factory.json"))
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
    doc = json.load(open(QUERIES / "factory.json"))
    doc["p"] = True
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "partition"])
@pytest.mark.parametrize("unit", [5, ["days"], True, None], ids=["number", "list", "bool", "null"])
def test_non_string_unit_is_input_error(capsys, tmp_path, command, unit):
    doc = json.load(open(QUERIES / "factory.json"))
    doc["unit"] = unit
    code, out, err = run(capsys, command, "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: unit must be a string, got {unit!r}\n"


@pytest.mark.parametrize("command", ["check", "partition"])
def test_missing_unit_is_valid(capsys, tmp_path, command):
    doc = json.load(open(QUERIES / "factory.json"))
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
    path = write_doc(tmp_path, _long_component_doc((10**6, 1), (2, 1)))
    tracemalloc.start()
    try:
        code, sink = _network_to_sink(path, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.count > 10**8
    assert peak < 4 * 2**20


def test_million_slot_reference_is_stdlib_indented_json():
    small = "".join(_million_slot_network("json", 3))
    assert small == _to_json(json.loads(small)) + "\n"


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
