"""One workload process of the benchmark; started by ``run.py``.

The process imports ``coincide`` from the checkout's ``src``, writes the
workload's documents, replays the sample queries, prints ``READY`` and
then runs a closed loop with one caller over whole passes of the
document pool.  Each round takes the next document and runs, in order,
``check``, ``witness`` and ``enumerate`` through ``coincide.cli.main``
with stdout captured, then three single-instance ``run_verification``
calls.  Every answer is checked after the timed region.

Untraced (``--trace 0``), the loop runs for ``--seconds`` and reports
latency percentiles, verify throughput and peak RSS.  Every timed
operation is scaled to nominal host speed by the probe run at the start
of its round (see ``probe.py``); the raw wall-clock figures are
reported too.

Traced (``--trace 1``), it alternates untraced and traced passes over
the whole document pool until ``--seconds`` run out.  Count and ratio
metrics come from the first traced pass, times are medians over the
traced passes, and the spans of the first traced pass are written to
``perfbench/out/spans-<workload>.tsv.gz``.

The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import inputs
import probe
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
OPS = ("check", "witness", "enumerate")
VERIFY_PER_ROUND = 3  # single-instance run_verification calls per round
MIN_ROUNDS = 100  # p90 needs at least 10 samples beyond it
QUERIES = ("factory.json", "factory_short_rest.json", "production_line.json")


def load_program() -> SimpleNamespace:
    """Import ``coincide`` from the checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coincide", "__init__.py")):
        raise SystemExit(f"error: no coincide sources under {src}")
    sys.path.insert(0, src)
    import coincide
    import coincide.cli
    import coincide.coincidence
    import coincide.oracle
    import coincide.recurrence
    import coincide.verify

    if os.path.dirname(os.path.dirname(os.path.abspath(coincide.__file__))) != src:
        raise SystemExit(f"error: coincide was imported from {coincide.__file__}, not {src}")
    return SimpleNamespace(
        cli=coincide.cli,
        coincidence=coincide.coincidence,
        oracle=coincide.oracle,
        recurrence=coincide.recurrence,
        verify=coincide.verify,
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile, defined only with >= 10 samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"{n} samples leave {n - rank} beyond p{round(q * 100)}; need 10")
    return sorted(samples)[rank - 1]


# -- correctness references (never timed) -----------------------------------


def sweep_windows(doc: inputs.Doc) -> list[tuple[int, int]]:
    """All shared windows over one cycle by an int-only two-pointer sweep."""
    big_x, big_y = sum(doc.durs_x), sum(doc.durs_y)
    cycle = math.lcm(big_x, big_y)
    ax, dx = sum(doc.durs_x[: doc.p]), doc.durs_x[doc.p]
    ay, dy = sum(doc.durs_y[: doc.q]), doc.durs_y[doc.q]
    nx, ny = cycle // big_x, cycle // big_y
    out = []
    i = j = 0
    while i < nx and j < ny:
        xs, ys = ax + i * big_x, ay + j * big_y
        s, e = max(xs, ys), min(xs + dx, ys + dy)
        if s < e:
            out.append((s, e))
        if xs + dx <= ys + dy:
            i += 1
        else:
            j += 1
    return out


class Reference:
    """Expected answers for one document, computed on first use."""

    def __init__(self, prog: SimpleNamespace, doc: inputs.Doc):
        rec = prog.recurrence
        x = rec.sequence("x", *doc.durs_x)
        y = rec.sequence("y", *doc.durs_y)
        rep = prog.oracle.oracle_decide(x, y, doc.p, doc.q)
        self.oracle_coincides = rep.decision.coincides
        self.oracle_windows = [(w.start, w.end) for w in rep.windows]
        self.decide_coincides = prog.coincidence.decide(x, y, doc.p, doc.q).coincides
        self.sweep = sweep_windows(doc)
        big_x, big_y = sum(doc.durs_x), sum(doc.durs_y)
        g = math.gcd(big_x, big_y)
        self.partition = {"g": g, "R": big_x // g, "S": big_y // g}
        self.cycle = math.lcm(big_x, big_y)
        self.comparisons = (self.cycle // big_x) * (self.cycle // big_y)


def _span(w):
    return None if w is None else (w["start"], w["end"])


def answer_ok(op: str, out: str, ref: Reference) -> bool:
    """Whether one captured ``--format json`` output is right."""
    try:
        doc = json.loads(out)
        verdict, witness = doc["coincides"], _span(doc["witness"])
        shape_ok = doc["partition"] == ref.partition and doc["cycle"] == ref.cycle
    except (ValueError, KeyError, TypeError):
        return False
    if not shape_ok or (witness is None) == verdict:
        return False
    if op == "check":
        return verdict == ref.oracle_coincides and (witness is None or witness in ref.oracle_windows)
    if op == "witness":
        first = ref.oracle_windows[0] if ref.oracle_windows else None
        return verdict == ref.oracle_coincides and witness == first
    windows = [_span(w) for w in doc.get("windows", [])]
    return (
        verdict == ref.decide_coincides
        and windows == ref.sweep
        and doc.get("comparisons") == ref.comparisons
    )


# -- the workload -------------------------------------------------------------


class Workload:
    """Documents on disk plus the outcome record of every operation."""

    def __init__(self, prog: SimpleNamespace, name: str, seed: int, workdir: str, n_docs: int | None = None):
        self.prog = prog
        self.seed = seed
        self.workdir = workdir
        self.docs = inputs.make_docs(name, seed, n_docs)
        self.paths = inputs.write_docs(self.docs, workdir)
        self.sizes = [os.path.getsize(p) for p in self.paths]
        # (doc index, op) -> {(exit code, stdout): times seen}
        self.outputs: dict[tuple[int, str], dict[tuple[object, str], int]] = {}
        self.verify_attempted = 0
        self.verify_failed = 0
        self.replay_attempted = 0
        self.replay_failed = 0

    def run_op(self, op: str, i: int, tr: tracing.Tracer | None = None) -> float:
        """One ``cli.main`` call on document ``i``; returns seconds taken."""
        out, err = io.StringIO(), io.StringIO()
        argv = [op, "--input", self.paths[i], "--format", "json"]
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.prog.cli.main(argv)
        except Exception as exc:  # a raising operation is a failed one
            rc = repr(exc)
        t1 = time.perf_counter()
        text = out.getvalue()
        seen = self.outputs.setdefault((i, op), {})
        seen[(rc, text)] = seen.get((rc, text), 0) + 1
        if tr is not None:
            tr.counts["cli.input_bytes"] += self.sizes[i]
            tr.counts["cli.output_bytes"] += len(text.encode())
        return t1 - t0

    def run_verify(self, seed: int) -> tuple[float, int]:
        """``run_verification`` of one instance; returns (seconds, pairs checked)."""
        t0 = time.perf_counter()
        report = self.prog.verify.run_verification(1, seed)
        t1 = time.perf_counter()
        self.verify_attempted += report.pairs_checked
        self.verify_failed += report.mismatches + report.witness_errors + report.soundness_violations
        return t1 - t0, report.pairs_checked

    def replay_queries(self, readme_example: dict | None) -> None:
        """Run the sample documents through ``check`` and compare with projection."""
        rec, oracle = self.prog.recurrence, self.prog.oracle
        for name in QUERIES:
            path = os.path.join(ROOT, "queries", name)
            self.replay_attempted += 1
            out = io.StringIO()
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rc = self.prog.cli.main(["check", "--input", path, "--format", "json"])
                result = json.loads(out.getvalue())
                specs = []
                for side in ("x", "y"):
                    comps = doc[side]["components"]
                    specs.append(
                        rec.sequence(side, *[c["dur"] for c in comps], component_names=[c["name"] for c in comps])
                    )
                p = rec.resolve_component(specs[0], doc["p"])
                q = rec.resolve_component(specs[1], doc["q"])
                expected = oracle.oracle_decide(specs[0], specs[1], p, q).decision.coincides
                ok = rc == 0 and result["coincides"] == expected
                if name == "factory.json":
                    ok = ok and result == readme_example
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                self.replay_failed += 1
                print(f"replay of queries/{name} failed", file=sys.stderr)

    def check_outputs(self) -> tuple[int, int]:
        """(attempted, failed) over every CLI operation run so far."""
        attempted = failed = 0
        refs: dict[int, Reference] = {}
        for (i, op), seen in sorted(self.outputs.items()):
            for (rc, text), times in seen.items():
                attempted += times
                if rc != 0:
                    failed += times
                    continue
                if i not in refs:
                    refs[i] = Reference(self.prog, self.docs[i])
                if not answer_ok(op, text, refs[i]):
                    failed += times
                    print(f"wrong {op} answer on {os.path.basename(self.paths[i])}", file=sys.stderr)
        return attempted, failed


def readme_example() -> dict | None:
    """The example result document of the README (the JSON block with ``coincides``)."""
    try:
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return None
    for block in text.split("```json")[1:]:
        try:
            doc = json.loads(block.split("```")[0])
        except ValueError:
            continue
        if isinstance(doc, dict) and "coincides" in doc:
            return doc
    return None


def timed_loop(wl: Workload, seconds: float) -> tuple[dict, dict, dict]:
    """Closed loop for ``seconds``; returns scaled metrics, sample counts, raw metrics."""
    speed = probe.SpeedProbe(wl.workdir)
    scaled = {op: [] for op in OPS}
    raw = {op: [] for op in OPS}
    verify_scaled_s = verify_raw_s = 0.0
    verify_pairs = verify_calls = 0
    seeds = inputs.VerifySeeds(wl.seed)
    n = len(wl.docs)
    rounds = 0
    deadline = time.perf_counter() + seconds
    # Whole passes only, so every document weighs the same in the percentiles.
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline or rounds % n:
        i = rounds % n
        round_seeds = [seeds.next() for _ in range(VERIFY_PER_ROUND)]
        k = speed.scale()
        for op in OPS:
            dt = wl.run_op(op, i)
            raw[op].append(dt)
            scaled[op].append(dt * k)
        for seed in round_seeds:
            dt, pairs = wl.run_verify(seed)
            verify_raw_s += dt
            verify_scaled_s += dt * k
            verify_pairs += pairs
            verify_calls += 1
        rounds += 1
    metrics = {"verify_pairs_per_s": (verify_pairs / verify_scaled_s, "1/s")}
    raw_metrics = {"verify_pairs_per_s": verify_pairs / verify_raw_s}
    samples = {"verify_pairs_per_s": verify_calls}
    for op in OPS:
        for q in (50, 90):
            name = f"{op}_p{q}_ms"
            metrics[name] = (percentile(scaled[op], q / 100) * 1e3, "ms")
            raw_metrics[name] = percentile(raw[op], q / 100) * 1e3
            samples[name] = len(scaled[op])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    samples["peak_rss_mb"] = 1
    return metrics, samples, raw_metrics


def one_pass(wl: Workload, tr: tracing.Tracer | None) -> float:
    """Every document once, each round as in the timed loop; returns wall seconds."""
    seeds = inputs.VerifySeeds(wl.seed)
    verify_seeds = [seeds.next() for _ in range(len(wl.docs) * VERIFY_PER_ROUND)]
    t0 = time.perf_counter()
    for i in range(len(wl.docs)):
        for op in OPS:
            wl.run_op(op, i, tr)
        for j in range(VERIFY_PER_ROUND):
            wl.run_verify(verify_seeds[i * VERIFY_PER_ROUND + j])
    return time.perf_counter() - t0


COUNT_METRICS = (
    "recurrence.validate.calls",
    "recurrence.offsets.calls",
    "partition.build_gcd_partition.calls",
    "partition.align_slot.calls",
    "coincidence.create_network.calls",
    "coincidence.network_entries",
    "coincidence.check_pair.calls",
    "coincidence.fired_theorems.calls",
    "oracle.oracle_decide.calls",
    "oracle.comparisons",
    "oracle.incidences",
    "oracle.windows",
    "intervals.objects",
    "intervals.allen_relation.calls",
    "verify.battery_pairs",
    "cli.input_bytes",
    "cli.output_bytes",
)
SELF_METRICS = (
    "recurrence.self_s",
    "partition.self_s",
    "coincidence.create_network.self_s",
    "coincidence.decide.self_s",
    "coincidence.first_coincidence.self_s",
    "coincidence.fired_theorems.self_s",
    "oracle.self_s",
    "intervals.self_s",
    "randgen.self_s",
    "verify.self_s",
    "cli.self_s",
)
UNITS = {"input_bytes": "bytes", "output_bytes": "bytes"}


def pass_counts(tr: tracing.Tracer) -> dict[str, float]:
    """Count and ratio metrics of one traced pass."""
    out: dict[str, float] = {}
    for name in COUNT_METRICS:
        span = name.removesuffix(".calls")
        out[name] = tr.calls_of(span) if span in tr.names else tr.counts[name]
    built = tr.calls_of("coincidence.create_network")
    pairs = tr.calls_of("coincidence.check_pair")
    out["coincidence.network_reuse_ratio"] = tr.counts["coincidence.distinct_networks"] / built if built else 1.0
    out["coincidence.check_pair.hit_ratio"] = tr.counts["coincidence.check_pair.hits"] / pairs if pairs else 0.0
    return out


def pass_self_times(tr: tracing.Tracer) -> dict[str, float]:
    out = {}
    for name in SELF_METRICS:
        head = name[: -len(".self_s")]
        out[name] = tr.layer_self_s(head) if "." not in head else tr.self_s_of(head)
    return out


def traced_loop(wl: Workload, seconds: float, spans_path: str) -> tuple[dict, dict]:
    untraced, traced, selfs = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(one_pass(wl, None))
        tr = tracing.Tracer(keep_spans=not traced)
        with tr:
            traced.append(one_pass(wl, tr))
        selfs.append(pass_self_times(tr))
        if len(traced) == 1:
            counts = pass_counts(tr)
            tr.write_spans(spans_path)
    metrics = {}
    for name, value in counts.items():
        unit = "ratio" if name.endswith("_ratio") else UNITS.get(name.rsplit(".", 1)[1], "count")
        metrics[name] = (value, unit)
    for name in SELF_METRICS:
        metrics[name] = (statistics.median(s[name] for s in selfs), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    samples = {name: len(traced) for name in metrics}
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.FAMILIES))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="exit right after READY")
    args = ap.parse_args(argv)

    prog = load_program()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        wl = Workload(prog, args.workload, args.seed, workdir)
        wl.replay_queries(readme_example())
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
            metrics, samples = traced_loop(wl, args.seconds, spans)
            raw = {}
        else:
            metrics, samples, raw = timed_loop(wl, args.seconds)
        attempted, failed = wl.check_outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += wl.verify_attempted + wl.replay_attempted
    failed += wl.verify_failed + wl.replay_failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "raw": raw,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
