#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys
import unittest

import inputs
import tracer as tracing
import worker

PROG = worker.load_program()
import coincide  # noqa: E402  (importable once load_program put src on the path)
from coincide.randgen import SplitMix64 as ProgramSplitMix64, random_instance  # noqa: E402

SCRATCH = os.path.join(worker.OUT, f"selftest-{os.getpid()}")
SMALL = 3  # documents per family in the traced tests


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def program_bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "coincide" or name.startswith("coincide."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for meth, val in vars(obj).items():
                        out[(f"{name}.{attr}", meth)] = val
    return out


class InputsTest(unittest.TestCase):
    def read_all(self, paths):
        out = []
        for path in paths:
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in inputs.FAMILIES:
            with self.subTest(workload=name):
                a = self.read_all(inputs.write_docs(inputs.make_docs(name, 7), os.path.join(SCRATCH, "a")))
                b = self.read_all(inputs.write_docs(inputs.make_docs(name, 7), os.path.join(SCRATCH, "b")))
                c = self.read_all(inputs.write_docs(inputs.make_docs(name, 8), os.path.join(SCRATCH, "c")))
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_generator_matches_program_generator(self):
        ours, theirs = inputs.SplitMix64(42), ProgramSplitMix64(42)
        self.assertEqual([ours.next_u64() for _ in range(100)], [theirs.next_u64() for _ in range(100)])

    def test_verify_seeds_cover_every_shape(self):
        seeds = inputs.VerifySeeds(3)
        shapes = set()
        for _ in range(64):
            seed = seeds.next()
            x, y = random_instance(ProgramSplitMix64(seed))
            self.assertEqual(inputs.instance_shape(seed), (x.length, y.length))
            shapes.add((x.length, y.length))
        self.assertEqual(len(shapes), 64)

    def test_family_bounds(self):
        for doc in inputs.make_docs("long-windows", 3):
            g = math.gcd(sum(doc.durs_x), sum(doc.durs_y))
            self.assertIn(len(doc.durs_x), (2, 3, 4))
            self.assertLessEqual(g, 3)
            self.assertTrue(10 <= doc.durs_x[doc.p] <= 500 and 10 <= doc.durs_y[doc.q] <= 500)
        for doc in inputs.make_docs("dense-cycle", 3):
            self.assertEqual(math.gcd(sum(doc.durs_x), sum(doc.durs_y)), 1)
            self.assertTrue(600 <= len(doc.durs_x) < 2200 and 600 <= len(doc.durs_y) < 2200)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(worker.percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            worker.percentile(list(range(99)), 0.9)
        self.assertEqual(worker.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(ValueError):
            worker.percentile(list(range(19)), 0.5)

    def test_order_does_not_matter(self):
        xs = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(worker.percentile(xs, 0.5), 50.0)
        self.assertEqual(worker.percentile(xs, 0.9), 90.0)


class TraceTest(unittest.TestCase):
    def traced_run(self, name: str, seed: int) -> tuple[worker.Workload, dict]:
        wl = worker.Workload(PROG, name, seed, os.path.join(SCRATCH, name), n_docs=SMALL)
        metrics, _ = worker.traced_loop(wl, 0.0, os.path.join(SCRATCH, f"spans-{name}.tsv.gz"))
        return wl, metrics

    def test_counts_repeat_and_bindings_are_restored(self):
        before = program_bindings()
        for name in inputs.FAMILIES:
            with self.subTest(workload=name):
                wl1, first = self.traced_run(name, 5)
                wl2, second = self.traced_run(name, 5)
                counts = [k for k, (_, unit) in first.items() if unit in ("count", "bytes", "ratio")]
                counts.remove("trace.overhead_ratio")
                self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})
                self.assertGreater(first["coincidence.check_pair.calls"][0], 0)
                self.assertGreater(first["intervals.objects"][0], 0)
                self.assertEqual(wl1.check_outputs()[1], 0)
                self.assertEqual(program_bindings(), before)

    def test_wrappers_reach_names_bound_by_import(self):
        original, original_oracle = coincide.cli.decide, coincide.verify.oracle_decide
        with tracing.Tracer() as tr:
            self.assertIsNot(coincide.cli.decide, original)
            self.assertIsNot(coincide.verify.oracle_decide, original_oracle)
            coincide.cli.decide(coincide.sequence("x", 2, 3), coincide.sequence("y", 4), 0, 0)
        self.assertIs(coincide.cli.decide, original)
        self.assertIs(coincide.verify.oracle_decide, original_oracle)
        self.assertEqual(tr.calls_of("coincidence.decide"), 1)
        self.assertGreater(tr.calls_of("coincidence.create_network"), 0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        _, traced = self.traced_run("verify-stream", 1)
        self.assertEqual(sorted(traced), sorted(m["name"] for m in spec["per_layer"]))
        wl = worker.Workload(PROG, "verify-stream", 1, os.path.join(SCRATCH, "names"))
        untraced, _, raw = worker.timed_loop(wl, 0.0)
        self.assertEqual(sorted(raw), sorted(untraced.keys() - {"peak_rss_mb"}))
        self.assertEqual(sorted(["setup_s", *untraced]), sorted(m["name"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
