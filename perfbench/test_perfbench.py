#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- every workload runs in quick mode, traced and untraced, with no failed
  operation, and reports every metric of BENCHMARK.json with its unit;
- a corrupted pinned digest makes the output check fail;
- every file the benchmark reads is tracked by git (a .gitignore pattern
  once kept test fixtures out of the repository silently);
- outside a full checkout the benchmark fails without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["paper_grid", "uhd_8ch", "mixed_random", "concurrent_display"]
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuickMode(unittest.TestCase):
    def check(self, trace):
        spec = benchmark_spec()
        rows = spec["per_layer"] if trace else spec["end_to_end"]
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                res = result_of(run("--workload", w, "--seed", "3", "--seconds", "1",
                                    "--trace", str(trace), "--quick"))
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                for m in rows:
                    self.assertIn(m["name"], res["metrics"])
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                if trace:
                    self.assertGreaterEqual(res["metrics"]["trace.coverage"]["value"], 0.95)
                else:
                    for m in rows:
                        self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_untraced(self):
        self.check(trace=0)

    def test_traced(self):
        self.check(trace=1)


class OutputCheck(unittest.TestCase):
    def test_corrupted_digest_fails(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
        key = "mixed_random/s3/r100000"
        self.assertIn(key, digests)
        digests[key] = "0" * 16
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "corrupt-digests.json")
        with open(path, "w") as f:
            json.dump(digests, f)
        res = result_of(run("--workload", "mixed_random", "--seed", "3",
                            "--seconds", "1", "--quick", "--digests", path))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)


class Tracked(unittest.TestCase):
    def test_inputs_are_tracked(self):
        if shutil.which("git") is None or subprocess.run(
                ["git", "-C", ROOT, "rev-parse"], capture_output=True).returncode:
            self.skipTest("not a git checkout")
        read = ["BENCHMARK.json"]
        for dirpath, _, names in os.walk(HERE):
            if "__pycache__" in dirpath:
                continue
            read += [os.path.relpath(os.path.join(dirpath, n), ROOT) for n in names]
        for path in read:
            with self.subTest(path=path):
                tracked = subprocess.run(["git", "-C", ROOT, "ls-files", "--error-unmatch", path],
                                         capture_output=True)
                ignored = subprocess.run(["git", "-C", ROOT, "check-ignore", "-q", "--no-index", path],
                                         capture_output=True)
                self.assertEqual(ignored.returncode, 1, "%s matches a .gitignore pattern" % path)
                self.assertEqual(tracked.returncode, 0, "%s is not tracked by git" % path)


class Standalone(unittest.TestCase):
    def test_fails_without_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "paper_grid", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
