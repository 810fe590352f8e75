"""Command-line interface.

Subcommands: check, witness, enumerate, partition, network, verify, bench.
Exit status is 0 whenever the command ran to completion (a negative
verdict is still 0), 1 when the reader closed the output pipe before the
output ended (nothing is printed then), and 2 on any input or usage
error; verdicts live in the output document, never in the exit code.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .coincidence import _Grid, _ShiftKernel, create_network, fired_theorems
from .intervals import CoincideError
from .partition import GcdPartition, build_gcd_partition
from .recurrence import SequenceSpec, resolve_component

_DUR = itemgetter("dur")


def _parse_sequence(obj, which: str) -> SequenceSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"{which!r} must be an object with 'name' and 'components'")
    comps = obj.get("components")
    if not isinstance(comps, list):
        raise ValueError(f"{which}.components must be a list")
    name = obj.get("name", which)
    if not isinstance(name, str):
        raise ValueError(f"{which}.name must be a string, got {name!r}")
    # Whole-list passes that run in C, and the spec checks both columns; a
    # nameless document fails the spec at once and is retried with default
    # names.  The walk below runs only on failure, to name the offender.
    try:
        durs = tuple(map(_DUR, comps))
        names = tuple(map(dict.get, comps, repeat("name")))
        try:
            return SequenceSpec(name, durs, names)
        except CoincideError:
            # Missing names default to ``c<i>``; a name given as null stays None.
            defaults = [f"c{i}" for i in range(len(comps))]
            return SequenceSpec(name, durs, tuple(map(dict.get, comps, repeat("name"), defaults)))
    except (TypeError, KeyError, CoincideError) as exc:
        error = exc  # a TypeError or KeyError: some component is not an object with "dur"
    for idx, c in enumerate(comps):
        if not isinstance(c, dict) or "dur" not in c:
            raise ValueError(f"{which}.components[{idx}] must be an object with 'dur'")
        if "name" in c and not isinstance(c["name"], str):
            raise ValueError(f"{which}.components[{idx}].name must be a string, got {c['name']!r}")
    raise error  # shapes and names are sound: a bad duration or no components


def _load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("input document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    return doc


def _load_pair(args) -> tuple[dict, SequenceSpec, SequenceSpec]:
    """The input document, its ``unit`` checked, and its two sequences."""
    doc = _load_document(args.input)
    x = _parse_sequence(doc.get("x"), "x")
    y = _parse_sequence(doc.get("y"), "y")
    if "unit" in doc and not isinstance(doc["unit"], str):
        raise ValueError(f"unit must be a string, got {doc['unit']!r}")
    return doc, x, y


def _component_key(raw) -> int | str:
    # Flag values arrive as strings; an ASCII decimal integer means an index,
    # anything else a name (str.isdigit alone also accepts "١" and "²").
    if isinstance(raw, str) and raw.isascii() and raw.removeprefix("-").isdigit():
        return int(raw)
    return raw


def _load_query(args) -> tuple[_ShiftKernel, str | None]:
    """The query's one kernel, which answers it, and the document's unit."""
    doc, x, y = _load_pair(args)
    p_key = _component_key(args.p if args.p is not None else doc.get("p"))
    q_key = _component_key(args.q if args.q is not None else doc.get("q"))
    if p_key is None or q_key is None:
        raise ValueError("both 'p' and 'q' must be given (document field or flag)")
    p = resolve_component(x, p_key)
    q = resolve_component(y, q_key)
    return _Grid(x, y).kernel(p, q), doc.get("unit")


def _window_obj(start: int, end: int) -> dict:
    return {"start": start, "end": end}


def _to_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, built without reference cycles.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder, whose
    nested closures leave cyclic garbage on every call (33 objects for a
    ``check`` result on CPython 3.11) for the collector to find.  Strings
    go through the stdlib's C escaper; ``pad`` is a newline plus the
    indentation of the enclosing container.  Dict keys must be strings.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_to_json(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_str(k) + ": " + _to_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # Floats and anything else: the stdlib's rendering, indented to this depth.
    return json.dumps(value, indent=2).replace("\n", pad)


def _emit(args, doc: dict, unit: str | None = None) -> None:
    if args.format == "json":
        print(_to_json(doc))
        return
    for key, value in doc.items():
        if value is None:
            print(f"{key}: none")
        elif key in ("witness",) and isinstance(value, dict):
            print(f"{key}: [{value['start']}, {value['end']})")
        elif key == "partition":
            print(f"{key}: g={value['g']} R={value['R']} S={value['S']}")
        elif key == "cycle" and unit:
            print(f"{key}: {value} {unit}")
        elif key == "fired":
            print(f"{key}: {' '.join(value) if value else '(none)'}")
        elif isinstance(value, str):
            print(f"{key}: {value}")
        else:
            print(f"{key}: {json.dumps(value)}")


def _grid(part: GcdPartition) -> dict:
    """The ``partition`` and ``cycle`` fields of a result document."""
    return {
        "partition": {"g": part.slot_dur, "R": part.slots_x, "S": part.slots_y},
        "cycle": part.slot_dur * part.cycle_slots,
    }


def cmd_check(args) -> int:
    k, unit = _load_query(args)
    d = k.decision()
    doc = {
        "coincides": d.coincides,
        "witness": _window_obj(d.witness.start, d.witness.end) if d.witness else None,
        **_grid(k.grid.part),
        "method": "gcd-partition",
        "fired": sorted(fired_theorems(*k.via_entries(d.via), k.grid.g)) if d.via else [],
    }
    _emit(args, doc, unit)
    return 0


def cmd_witness(args) -> int:
    k, unit = _load_query(args)
    w = next(k.walk(), None)
    doc = {
        "coincides": w is not None,
        "witness": _window_obj(*w) if w else None,
        **_grid(k.grid.part),
        "method": "gcd-partition",
    }
    _emit(args, doc, unit)
    return 0


def cmd_enumerate(args) -> int:
    k, unit = _load_query(args)
    walk = k.walk()
    first = next(walk, None)
    head = {"coincides": first is not None, "witness": _window_obj(*first) if first else None}
    # "comparisons" is what projecting the cycle would cost: R * S incidence pairs.
    tail = {**_grid(k.grid.part), "method": "gcd-partition", "comparisons": k.grid.part.cycle_slots}
    write = sys.stdout.write
    if args.format == "json":  # one level deep, indented as _to_json would
        item, sep, close = '{\n      "start": %d,\n      "end": %d\n    }', ",\n    ", "\n  ]"
        write(_to_json(head)[:-2] + ',\n  "windows": ' + ("[\n    " + item % first if first else "[]"))
    else:
        item, sep, close = "[%d, %d)", " ", "\n"
        _emit(args, head)
        write("windows: " + (item % first if first else "(none)\n"))
    if first:
        # One template per window, filled 1024 windows per write: memory stays flat.
        row = sep + item
        for flat in iter(lambda: tuple(chain.from_iterable(islice(walk, 1024))), ()):
            write(row * (len(flat) // 2) % flat)
        write(close)
    if args.format == "json":
        write("," + _to_json(tail)[1:] + "\n")
    else:
        _emit(args, tail, unit)
    return 0


def cmd_partition(args) -> int:
    doc, x, y = _load_pair(args)
    _emit(args, _grid(build_gcd_partition(x, y)), doc.get("unit"))
    return 0


def cmd_network(args) -> int:
    _, x, y = _load_pair(args)
    spec = x if args.side == "x" else y
    g = build_gcd_partition(x, y).slot_dur
    net = create_network(spec, g, args.index)
    # One row template per run, filled 1024 slots per write: memory stays flat.
    if args.format == "json":
        head = (
            f'{{\n  "sequence": {_json_str(spec.name)},\n  "component": {args.index},\n'
            f'  "g": {g},\n  "entries": ['
        )
        row = (
            ',\n    {{\n      "slot": %d,\n      "rel": "{0.rel.value}",\n      "left_gap": {0.left_gap},'
            '\n      "right_gap": {0.right_gap},\n      "common_dur": {0.common_dur}\n    }}'
        )
        foot = f'\n  ],\n  "flag": {_to_json(net.flag)}\n}}\n'
    else:
        head = f"network: {spec.name}[{args.index}] {spec.names[args.index]!r} on slot grid g={g}\n"
        row = "  slot %d: {0.rel.value}  left_gap={0.left_gap} right_gap={0.right_gap} common={0.common_dur}\n"
        foot = f"flag: {_to_json(net.flag)}\n"
    rows = [row.format(e) for e, _ in net.runs]
    # JSON elements start with a comma; the first run is the first slot alone.
    rows[0] = rows[0].removeprefix(",")
    sys.stdout.write(head)
    for (e, count), line in zip(net.runs, rows):
        for start in range(e.slot, e.slot + count, 1024):
            slots = tuple(range(start, min(start + 1024, e.slot + count)))
            sys.stdout.write(line * len(slots) % slots)
    sys.stdout.write(foot)
    return 0


def cmd_verify(args) -> int:
    # Imported here, as in cmd_bench, to keep statistics, random and the
    # verification modules off the import path of the query commands.
    from .verify import run_verification

    report = run_verification(args.trials, args.seed)
    if args.format == "json":
        # Keys in the report's field order; failures are listed by the text output only.
        doc = {**vars(report), "passed": report.passed}
        del doc["failures"]
        print(_to_json(doc))
    else:
        for line in report.summary_lines():
            print(line)
        for failure in report.failures[:20]:
            print(f"  {failure}")
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench

    report = run_bench(args.max_exponent)
    if args.format == "json":
        doc = {**vars(report), "rows": [vars(r) for r in report.rows]}
        print(_to_json(doc))
    else:
        for line in report.csv_lines():
            print(line)
        gcd_s = "n/a" if report.gcd_slope is None else f"{report.gcd_slope:.3f}"
        ora_s = "n/a" if report.oracle_slope is None else f"{report.oracle_slope:.3f}"
        print(f"gcd-method log-log slope: {gcd_s}")
        print(f"oracle log-log slope: {ora_s}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: the parser holds no per-call state, and
    # building it costs more than answering a small query.
    parser = argparse.ArgumentParser(
        prog="coincide",
        description="Decide whether components of two recurring schedules ever coincide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_input=True, needs_pq=False):
        if needs_input:
            sp.add_argument("--input", required=True, help="query document (JSON)")
        if needs_pq:
            sp.add_argument("--p", help="first-sequence component index or name (overrides document)")
            sp.add_argument("--q", help="second-sequence component index or name (overrides document)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("check", help="decide coincidence via the slot grid")
    add_common(sp, needs_pq=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("witness", help="earliest shared window in the cycle")
    add_common(sp, needs_pq=True)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("enumerate", help="all shared windows in the cycle, one per slot shift")
    add_common(sp, needs_pq=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("partition", help="show the slot grid of the pair")
    add_common(sp)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("network", help="dump one component's slot network")
    add_common(sp)
    sp.add_argument("--side", choices=("x", "y"), required=True)
    sp.add_argument("--index", type=int, required=True, help="component index")
    sp.set_defaults(func=cmd_network)

    sp = sub.add_parser("verify", help="randomized cross-validation against projection")
    add_common(sp, needs_input=False)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="operation-count scaling benchmark")
    add_common(sp, needs_input=False)
    sp.add_argument("--max-exponent", type=int, default=10, dest="max_exponent")
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    # BrokenPipeError subclasses OSError, JSONDecodeError ValueError: both first.
    except BrokenPipeError:
        # The reader left: send what is still buffered to devnull, so the
        # flush at exit cannot fail again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    except (CoincideError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
