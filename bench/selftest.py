"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload on one operation, untraced and traced, as the
benchmark is run (a child process per run), and checks that:

- every metric named in BENCHMARK.json is emitted with its unit, and no
  other;
- the failure ratio is failures over attempted operations;
- the traced and the untraced run give the same outcome digests;
- in the traced run every layer's self time is non-negative and the self
  times of one operation sum to the duration of its root span, within the
  timer's resolution.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESOLUTION = time.get_clock_info("perf_counter").resolution


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--ops", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class HarnessTest(unittest.TestCase):
    def check_workload(self, workload):
        spec = bench_spec()
        results = {t: run_once(workload, t) for t in (0, 1)}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            detail, line = results[trace]
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            self.assertEqual(got, want)
            self.assertEqual(line["attempted"], 1)
            self.assertEqual(line["failed"], 0, detail["failures"])
            self.assertTrue(line["correct"])
            self.assertEqual(detail["fail_ratio"],
                             line["failed"] / line["attempted"])
        self.assertEqual(results[0][0]["outcome_digests"],
                         results[1][0]["outcome_digests"])

        detail = results[1][0]
        with open(ROOT / detail["spans_file"], encoding="utf-8") as fh:
            trace = json.load(fh)
        totals = trace["totals"]["0"]            # the one operation
        self.assertIn("kinematics.classify" if workload != "cli"
                      else "cli.main", totals)
        for name, (calls, busy, self_s, *_counters) in totals.items():
            self.assertGreater(calls, 0, name)
            self.assertGreaterEqual(self_s, -RESOLUTION * calls, name)
            self.assertLessEqual(self_s, busy + RESOLUTION, name)
        roots = [end - start for _, start, end, parent, bucket in trace["spans"]
                 if bucket == 0 and parent == -1]
        self.assertEqual(len(roots), 1)
        n_calls = sum(row[0] for row in totals.values())
        self.assertAlmostEqual(sum(row[2] for row in totals.values()),
                               roots[0], delta=RESOLUTION * n_calls + 1e-9)

    def test_catalog(self):
        self.check_workload("catalog")

    def test_rebased(self):
        self.check_workload("rebased")

    def test_cli(self):
        self.check_workload("cli")


if __name__ == "__main__":
    unittest.main()
