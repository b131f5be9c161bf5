#!/usr/bin/env python3
"""Smoke test of the benchmark: builds tss_bench, runs all four
workloads shrunk (--smoke, a few seconds in total) with spans on, and
checks that

  - BENCHMARK.json is well formed and every metric it names is emitted
    by every workload with a valid name and the same unit;
  - no check failed (failed == 0) and the one-line result is well formed;
  - every span file parses;
  - child spans nest inside their parent, so no child's self time
    exceeds its parent's duration;
  - wide-par's exact metrics equal wide-seq's.

Run: python3 tssbench/test_tss_bench.py
"""

import json
import math
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tss_bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = tss_bench.load_benchmark()
        exe = tss_bench.build()
        cls.results, cls.spans = {}, {}
        for w in cls.bench["workloads"]:
            name = w["name"]
            cls.spans[name] = os.path.join(tss_bench.BUILD_DIR, "spans",
                                           f"smoke-{name}.json")
            cls.results[name] = tss_bench.run_binary(
                exe, name, 1, tss_bench.SMOKE_SECONDS, smoke=True,
                spans=cls.spans[name])

    def test_benchmark_json(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["tssbench"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [m["name"] for m in b["workloads"] + b["end_to_end"] +
                 b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_every_metric_emitted(self):
        for w, res in self.results.items():
            for m in self.bench["end_to_end"] + self.bench["per_layer"]:
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertRegex(m["name"], NAME)
                    self.assertRegex(m["unit"], UNIT)
                    self.assertIn(m["better"], ("higher", "lower"))
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertTrue(math.isfinite(got["value"]))
            for m in self.bench["end_to_end"]:
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_no_failures(self):
        for w, res in self.results.items():
            with self.subTest(workload=w):
                self.assertEqual(res["failed"], 0, res["failures"])
                self.assertTrue(res["correct"])
                for trace in (0, 1):
                    line = tss_bench.result_line(res, self.bench, trace)
                    self.assertEqual(set(line), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertGreaterEqual(line["attempted"], 1)

    def test_spans_parse_and_nest(self):
        for w, path in self.spans.items():
            with self.subTest(workload=w):
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                by_id = {e["args"]["id"]: e for e in events}
                child_total = {}
                # Timestamps are rounded to 1 ns in the file.
                eps = 0.002
                for e in events:
                    parent = e["args"]["parent"]
                    if parent < 0:
                        continue
                    p = by_id[parent]
                    self.assertGreaterEqual(e["ts"], p["ts"] - eps)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + eps)
                    child_total[parent] = child_total.get(parent, 0) + \
                        e["dur"]
                for pid, total in child_total.items():
                    self.assertLessEqual(
                        total, by_id[pid]["dur"] + eps * 64, by_id[pid])
                for name, (_, _, self_us) in \
                        tss_bench.self_times(events).items():
                    self.assertGreaterEqual(self_us, -eps * 64, name)

    def test_thread_count_identity(self):
        runs = [{"workload": w, "seed": 1, "traced": True, "result": r}
                for w, r in self.results.items()]
        self.assertEqual(tss_bench.identity_failures(runs), [])


if __name__ == "__main__":
    unittest.main()
