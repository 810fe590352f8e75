#!/usr/bin/env python3
"""Wall-clock benchmark of coincide: verify throughput and CLI query latency.

Usage:
    python3 perfbench/run.py --workload {verify-stream,long-windows,dense-cycle}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (``worker.py``) pinned to one CPU.  With
``--trace 0`` the set-up is first repeated in nine set-up-only workers,
so ``setup_s`` is the median of ten timings of process start to the
first timed operation (interpreter start, ``import coincide``,
generating and writing the documents, replaying ``queries/``).  All
times are scaled to nominal host speed by ``probe.py``; the raw
wall-clock medians are kept in the result record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it starts
with ``# result`` and records the run (Python version, CPUs, commit,
seed, samples per metric).  The same record is written to
``perfbench/out/result-<workload>-s<seed>-t<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-stream", "long-windows", "dense-cycle")
SETUP_RUNS = 9  # set-up-only workers before the measured one
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_commit(root: str) -> str | None:
    """HEAD of the checkout read from ``.git``, or None when it is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and its workers on one CPU, so they never migrate."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it and the set-up seconds."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker to end and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(args, speed: probe.SpeedProbe) -> tuple[dict, dict, dict]:
    raw, scaled = [], []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            k = speed.scale()
            proc, setup = start_worker(args, setup_only=True)
            finish(proc)
            raw.append(setup)
            scaled.append(setup * k)
    k = speed.scale()
    proc, setup = start_worker(args, setup_only=False)
    raw.append(setup)
    scaled.append(setup * k)
    lines = finish(proc).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    samples, raw_metrics = result.pop("samples"), result.pop("raw")
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(scaled), "unit": "s"},
            **result["metrics"],
        }
        samples = {"setup_s": len(scaled), **samples}
        raw_metrics = {"setup_s": statistics.median(raw), **raw_metrics}
    return result, samples, raw_metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "coincide", "__init__.py")):
        print(f"error: no coincide sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    probe_dir = os.path.join(HERE, "out", f"probe-{os.getpid()}")
    try:
        result, samples, raw = run(args, probe.SpeedProbe(probe_dir))
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    metrics = result["metrics"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "commit": git_commit(ROOT),
        "samples": samples,
        "raw": raw,
        "failed_ratio": result["failed"] / result["attempted"],
        "trace.overhead_ratio": metrics.get("trace.overhead_ratio", {}).get("value"),
        **result,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("# result " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
