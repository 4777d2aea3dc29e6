"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

The strobe-dead test builds perfbench_probe (as run.py does) the first time.
"""

import collections
import heapq
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import openloop  # noqa: E402
import run  # noqa: E402
import specgen  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(measure.samples_for(90), 100)
        summary = measure.timing_summary(list(range(1, 101)))
        self.assertEqual(summary["n"], 100)
        self.assertEqual(summary["p50"], 50)
        self.assertEqual(summary["p90"], 90)
        self.assertEqual(summary["p90_beyond"], 10)

    def test_p90_withheld_below_ten_beyond(self):
        summary = measure.timing_summary(list(range(1, 100)))
        self.assertEqual(summary["n"], 99)
        self.assertIsNone(summary["p90"])
        self.assertEqual(summary["p90_beyond"], 9)

    def test_nearest_rank(self):
        self.assertEqual(measure.percentile([5.0], 90), (5.0, 0))
        self.assertEqual(measure.percentile([3, 1, 2, 4], 50), (2, 2))


class OpenLoopLatency(unittest.TestCase):
    """Due-time latency on a synthetic schedule: a fake daemon completes
    each job 5 ms after its submit returns; one submit stalls."""

    JOBS = 40
    GAP_S = 0.01
    STALL_S = 0.25
    STALLED = 10

    def run_schedule(self, stall):
        completions = []

        def submit(spec):
            if stall and spec == f"s{self.STALLED}":
                time.sleep(self.STALL_S)
            heapq.heappush(completions, (time.perf_counter() + 0.005, spec))
            return True

        def wait(timeout):
            until = time.perf_counter() + max(0.0, timeout)
            if completions:
                until = min(until, completions[0][0])
            time.sleep(max(0.0, until - time.perf_counter()))
            done = []
            while completions and completions[0][0] <= time.perf_counter():
                _, spec = heapq.heappop(completions)
                done.append((spec, {"spec": spec}))
            return done

        schedule = [(i * self.GAP_S, f"s{i}") for i in range(self.JOBS)]
        jobs = openloop.open_loop(schedule, submit, wait, timeout_s=5.0)
        self.assertTrue(all(j["done"] is not None for j in jobs))
        latency_ms = [(j["done"] - j["due"]) * 1e3 for j in jobs]
        late_ms = [(j["sent"] - j["due"]) * 1e3 for j in jobs]
        return latency_ms, measure.percentile(late_ms, 99)[0]

    def test_stall_delays_every_later_request(self):
        calm, calm_late = self.run_schedule(stall=False)
        stalled, stalled_late = self.run_schedule(stall=True)
        # Requests due while the submit was stalled were sent late, and their
        # latency counts the wait from when they were due.
        for i in range(self.STALLED + 1, self.STALLED + 10):
            self.assertGreater(stalled[i], calm[i] + 100.0)
        self.assertLess(calm_late, 50.0)
        self.assertGreater(stalled_late, 150.0)


def spec_fields(path):
    with open(path, encoding="ascii") as spec:
        return dict(re.split(r"\s*=\s*", line.strip(), maxsplit=1)
                    for line in spec if "=" in line)


def generate(directory, seed):
    table1 = specgen.table1_spec(directory, seed)
    _, sweep = specgen.sweep_specs(directory, seed)
    daemon = specgen.daemon_inputs(directory, seed, 40)
    return table1, sweep, daemon


class SeededGeneration(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            first = generate(a, 7)[2]["schedule"]
            second = generate(b, 7)[2]["schedule"]
            self.assertEqual(sorted(os.listdir(a)), sorted(os.listdir(b)))
            for name in os.listdir(a):
                with open(os.path.join(a, name), "rb") as x, \
                        open(os.path.join(b, name), "rb") as y:
                    self.assertEqual(x.read(), y.read(), name)
            strip = [(due, kind, os.path.basename(p))
                     for due, kind, p in first]
            self.assertEqual(strip, [(due, kind, os.path.basename(p))
                                     for due, kind, p in second])

    def test_other_seed_changes_seeds_keeps_job_counts(self):
        seed_keys = {"lfsr_seed", "lot_seed", "atpg_seed"}
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            one, two = generate(a, 7), generate(b, 8)
            pairs = [(one[0], two[0])]
            pairs += [(x[1], y[1]) for x, y in zip(one[1], two[1])]
            pairs += [(x[2], y[2]) for x, y in
                      zip(one[2]["schedule"], two[2]["schedule"])]
            changed = set()
            for x, y in pairs:
                fx, fy = spec_fields(x), spec_fields(y)
                self.assertEqual(fx.keys(), fy.keys())
                for key in fx:
                    if key in seed_keys:
                        self.assertNotEqual(fx[key], fy[key], (x, key))
                        changed.add(key)
                    else:
                        self.assertEqual(fx[key], fy[key], (x, key))
            self.assertEqual(changed, seed_keys)
            self.assertEqual(collections.Counter(k for k, _ in one[1]),
                             collections.Counter(k for k, _ in two[1]))
            self.assertEqual(
                collections.Counter(k for _, k, _ in one[2]["schedule"]),
                collections.Counter(k for _, k, _ in two[2]["schedule"]))
            self.assertNotEqual([d for d, _, _ in one[2]["schedule"]],
                                [d for d, _, _ in two[2]["schedule"]])


class StrobeDeadShare(unittest.TestCase):
    def test_known_answer_on_hand_built_circuit(self):
        os.chdir(run.ROOT)
        probe = run.build()["probe"]
        done = subprocess.run([probe, "selftest"], capture_output=True,
                              text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
