#!/usr/bin/env python3
"""perfbench's own tests: determinism, thread invariance, seed sensitivity,
output correctness and the result-line contract.

    python3 perfbench/test_perfbench.py          # from the repository root

Builds perfbench like run.py does, then runs the workloads directly with
`--seconds 0`, the fewest rounds a run makes (three, two when traced), so
every run also checks that its rounds agree on one digest. Takes about
six minutes, most of it churn_ctl.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace=0, threads=None):
    """A minimal run of `workload`; returns (digest, result object, stdout)."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace),
           "--trace-dir", str(run.BUILD_DIR / "test-traces")]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1]), out


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_digest_follows_seed(self):
        # Same seed, same digest (across processes, and across the rounds
        # of each run); another seed, another digest.
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, ra, out = bench(w, 7)
                b, rb, _ = bench(w, 7)
                c, rc, _ = bench(w, 8)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)
                for r in (ra, rb, rc):
                    self.assertTrue(r["correct"], out)

    def test_region_scale_thread_count_invariant(self):
        one, _, _ = bench("region_scale", 3, threads=1)
        two, _, _ = bench("region_scale", 3, threads=2)
        self.assertEqual(one, two)

    def test_cdn_payloads_match_origin(self):
        # The workload compares every fetched payload with the origin
        # provider's bytes and reports the run incorrect on any mismatch.
        _, res, out = bench("cdn_zipf", 11)
        self.assertTrue(res["correct"], out)
        self.assertNotIn("check failed", out)
        self.assertGreater(res["attempted"], 0)

    def test_result_line_contract(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layer = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for trace, names in ((0, e2e), (1, layer)):
            _, res, _ = bench("stack_bulk", 5, trace=trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(sorted(res["metrics"]), sorted(names))
        _, res, _ = bench("stack_bulk", 5)
        for m in SPEC["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot
        # build the program: run.py must exit non-zero with no result.
        bare = run.BUILD_DIR / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stack_bulk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
