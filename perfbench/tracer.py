"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` wraps every public function of each layer module of
``coincide`` and rebinds the wrapper wherever the original is bound: in
its own module and in every module that imported it by name (``cli``
binds ``decide``, ``verify`` binds ``oracle_decide``, and so on).  It
also wraps ``SequenceSpec.offsets`` and ``Interval.__post_init__``.
``uninstall`` puts every original back.

Each wrapped call records a span: name, start, end (``perf_counter_ns``)
and parent span.  Self time is a span's duration minus the time its
child spans cover; it is summed per span name as calls close, so only
the span list itself grows with the run.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from collections import Counter

# Layers are the modules ``coincide.<layer>``; spans are named "<layer>.<function>".
LAYERS = ("recurrence", "partition", "coincidence", "oracle", "intervals", "randgen", "verify", "cli")

# Methods wrapped besides module functions: (layer, class, method, span name).
METHODS = (
    ("recurrence", "SequenceSpec", "offsets", "recurrence.offsets"),
    ("intervals", "Interval", "__post_init__", "intervals.objects"),
)

def _on_create_network(tracer, args, kwargs, result):
    tracer.counts["coincidence.network_entries"] += len(result.entries)
    spec, g, p = (list(args) + [kwargs.get("g"), kwargs.get("p")])[:3]
    key = (spec, p, g)
    if key not in tracer.op_networks:
        tracer.op_networks.add(key)
        tracer.counts["coincidence.distinct_networks"] += 1


def _on_check_pair(tracer, args, kwargs, result):
    if result:
        tracer.counts["coincidence.check_pair.hits"] += 1


def _on_oracle_decide(tracer, args, kwargs, result):
    tracer.counts["oracle.comparisons"] += result.comparisons
    tracer.counts["oracle.windows"] += len(result.windows)


def _on_incidences_of(tracer, args, kwargs, result):
    tracer.counts["oracle.incidences"] += len(result)


def _on_run_verification(tracer, args, kwargs, result):
    tracer.counts["verify.battery_pairs"] += result.battery_pairs


HOOKS = {
    "coincidence.create_network": _on_create_network,
    "coincidence.check_pair": _on_check_pair,
    "oracle.oracle_decide": _on_oracle_decide,
    "recurrence.incidences_of": _on_incidences_of,
    "verify.run_verification": _on_run_verification,
}


class Tracer:
    """Span recorder for one traced pass.

    ``calls`` and ``self_ns`` are indexed by span-name id; ``counts``
    holds the result-derived counters of ``HOOKS`` plus any the
    benchmark adds.  With ``keep_spans`` the spans themselves are kept
    in compact arrays for ``write_spans``.
    """

    def __init__(self, keep_spans: bool = False):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts: Counter[str] = Counter()
        self.keep_spans = keep_spans
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[list[int]] = []
        # Distinct (sequence, component, g) networks built by the current
        # top-level call; cleared when that call returns.
        self.op_networks: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        hook = HOOKS.get(name)
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        keep = self.keep_spans
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            calls[nid] += 1
            sid = -1
            start = clock()
            if keep:
                sid = len(span_start)
                span_name.append(nid)
                span_parent.append(stack[-1][0] if stack else -1)
                span_start.append(start)
                span_end.append(0)
            frame = [sid, start, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_ns[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.op_networks.clear()
                if keep:
                    span_end[sid] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever it is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        program = [m for n, m in sorted(sys.modules.items()) if n == "coincide" or n.startswith("coincide.")]
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"coincide.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        for mod in program:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"coincide.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def self_s_of(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_ns) if n == name) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(s for l, s in zip(self.layer_of, self.self_ns) if l == layer) / 1e9

    def write_spans(self, path: str) -> None:
        """Write kept spans as gzipped TSV.

        A ``# name_id<TAB>name`` header block, then one row per span:
        id, parent id (-1 for a top-level call), name id, start and
        duration in ns, starts counted from the first span.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for nid, name in enumerate(self.names):
                fh.write(f"# {nid}\t{name}\n")
            fh.write("id\tparent\tname_id\tstart_ns\tdur_ns\n")
            for sid, start in enumerate(self.span_start):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_name[sid]}\t"
                    f"{start - origin}\t{self.span_end[sid] - start}\n"
                )

