"""Host-speed probe that turns wall-clock times into nominal-speed times.

On the 2-CPU Xeon host this benchmark was tuned on, a CPU changes speed
by up to 2.6x, in phases lasting from one second to many minutes.
Process CPU time swings just as wall time does, so this is not time
stolen by the hypervisor.  Phases that long decide whole runs, so raw
medians of runs taken minutes apart disagree by far more than any bound
worth setting.

The probe is fixed, stdlib-only work in two halves of about equal time.
The first half is a miniature of one CLI call: it builds an argparse
parser with seven subcommands, reads a small JSON file, builds frozen
dataclasses and prints indented JSON.  The second half parses a larger
JSON document and loops over it, like the data-heavy queries.  The
worker runs the probe once per round and scales each time of the round
by ``NOMINAL_S / probe``: the time the operation would take on a host
where the probe takes ``NOMINAL_S``.

Kinds of work slow down by different factors.  Scaled by a JSON-only
probe, ten-seed spreads stayed within 7% for the data-heavy workloads,
but tiny-document queries were over-corrected by 20% when the host got
busier.  Scaled by the CLI miniature alone, tiny queries held within 6%,
but ``dense-cycle`` spreads grew to 10%.  The two halves split the
difference.  The probe does not touch the program's code, so a change
to the program moves scaled times as it moves raw ones.  The raw
medians stay in every result record.  A change that slows every
bytecode alike, such as a global trace hook, also slows the probe and
does not show in scaled times; look at the raw medians for that.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass

# Roughly the probe's time on the reference host in a calm phase, so
# scaled and raw times are alike there.
NOMINAL_S = 0.004
WINDOW = 3  # probes in the rolling median

_DOC = json.dumps({"components": [{"name": f"c{i}", "dur": (i * 7919) % 16 + 1} for i in range(120)]})
_BIG_DOC = json.dumps({"components": [{"name": f"c{i}", "dur": (i * 7919) % 16 + 1} for i in range(2000)]})


@dataclass(frozen=True)
class _Item:
    name: str
    dur: int

    def __post_init__(self) -> None:
        if self.dur < 1:
            raise ValueError(f"duration must be >= 1, got {self.dur}")


def _work(path: str) -> None:
    ap = argparse.ArgumentParser(prog="probe")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("a", "b", "c", "d", "e", "f", "g"):
        sp = sub.add_parser(name, help=name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--format", choices=("text", "json"), default="text")
    args = ap.parse_args(["b", "--input", path, "--format", "json"])
    with open(args.input, encoding="utf-8") as fh:
        doc = json.load(fh)
    items = [_Item(str(c["name"]), c["dur"]) for c in doc["components"]]
    acc = 0
    offsets = []
    for it in items:
        offsets.append(acc)
        acc += it.dur
    g = 0
    for off in offsets:
        g = math.gcd(g, off + acc)
    print(json.dumps({"offsets": offsets[:50], "total": acc, "g": g}, indent=2), file=io.StringIO())

    pairs = [(c["name"], c["dur"]) for c in json.loads(_BIG_DOC)["components"]]
    acc = 0
    offsets = []
    for _, dur in pairs:
        offsets.append(acc)
        acc += dur
    json.dumps(offsets)


class SpeedProbe:
    """Rolling median of the latest probes, as a factor to scale times by.

    The probe's input file is written to ``workdir``, which the caller
    owns and removes.
    """

    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, "probe.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(_DOC)
        self.recent: deque[float] = deque(maxlen=WINDOW)

    def probe_once(self) -> float:
        """Seconds taken by one run of the probe, with the GC off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work(self.path)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Probe once and return ``NOMINAL_S / median of recent probes``."""
        self.recent.append(self.probe_once())
        return NOMINAL_S / statistics.median(self.recent)
