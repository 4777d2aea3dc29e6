#!/usr/bin/env python3
"""Self-test of tools/perf_gate.py on synthetic google-benchmark JSON.

    python3 tools/test_perf_gate.py

Pins the gate's verdicts: a slowdown beyond budget fails, a threaded row
(lanes counter > 1) is flagged instead when either file records an
effective parallelism below 2, and one-lane rows or files without the
context gate as before.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perf_gate.py")


def bench_file(directory, name, rows, parallelism=None):
    """Write a benchmark JSON file: rows maps name -> (ms, lanes or None)."""
    benchmarks = []
    for row, (time_ms, lanes) in rows.items():
        entry = {"name": row, "run_name": row, "run_type": "iteration",
                 "real_time": time_ms, "time_unit": "ms"}
        if lanes is not None:
            entry["lanes"] = float(lanes)
        benchmarks.append(entry)
    context = {"host_name": "synthetic"}
    if parallelism is not None:
        context["effective_parallelism"] = f"{parallelism:.2f}"
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump({"context": context, "benchmarks": benchmarks}, handle)
    return path


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, base_rows, cur_rows, base_par=None, cur_par=None):
        base = bench_file(self.tmp.name, "base.json", base_rows, base_par)
        cur = bench_file(self.tmp.name, "cur.json", cur_rows, cur_par)
        proc = subprocess.run([sys.executable, GATE, base, cur],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_threaded_slowdown_on_starved_host_is_flagged(self):
        code, out = self.gate({"BM_Mt/8": (10.0, 8)}, {"BM_Mt/8": (20.0, 8)},
                              base_par=3.9, cur_par=1.0)
        self.assertEqual(code, 0, out)
        self.assertIn("FLAGGED", out)
        self.assertNotIn("REGRESSION", out)

    def test_starved_baseline_alone_flags_too(self):
        code, out = self.gate({"BM_Mt/8": (10.0, 8)}, {"BM_Mt/8": (20.0, 8)},
                              base_par=1.2, cur_par=3.8)
        self.assertEqual(code, 0, out)
        self.assertIn("FLAGGED", out)

    def test_threaded_slowdown_with_real_cores_fails(self):
        code, out = self.gate({"BM_Mt/8": (10.0, 8)}, {"BM_Mt/8": (20.0, 8)},
                              base_par=3.9, cur_par=3.7)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_missing_context_gates_as_before(self):
        code, out = self.gate({"BM_Mt/8": (10.0, 8)}, {"BM_Mt/8": (20.0, 8)})
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_one_lane_rows_always_gate(self):
        for lanes in (None, 1):
            code, out = self.gate({"BM_Serial": (10.0, lanes)},
                                  {"BM_Serial": (20.0, lanes)},
                                  base_par=1.0, cur_par=1.0)
            self.assertEqual(code, 1, out)
            self.assertIn("REGRESSION", out)

    def test_flag_does_not_hide_a_one_lane_regression(self):
        code, out = self.gate(
            {"BM_Mt/8": (10.0, 8), "BM_Serial": (10.0, None)},
            {"BM_Mt/8": (20.0, 8), "BM_Serial": (20.0, None)},
            base_par=1.0, cur_par=1.0)
        self.assertEqual(code, 1, out)
        self.assertIn("FLAGGED", out)
        self.assertIn("REGRESSION", out)

    def test_within_budget_passes_either_way(self):
        for par in (None, 1.0, 3.9):
            code, out = self.gate({"BM_Mt/8": (10.0, 8)},
                                  {"BM_Mt/8": (11.0, 8)},
                                  base_par=par, cur_par=par)
            self.assertEqual(code, 0, out)
            self.assertNotIn("FLAGGED", out)


if __name__ == "__main__":
    unittest.main()
