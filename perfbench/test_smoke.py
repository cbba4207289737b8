"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, must emit every metric `BENCHMARK.json` names, with its unit.

    python3 -m unittest perfbench/test_smoke.py      # from the repository root
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's runner next to this file)


class SmokeTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        binary = run.build()
        bench = run.spec()
        for workload in run.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, line, result = run.run_workload(binary, workload, 1, 1, trace, size="smoke")
                    declared = {m["name"]: m["unit"] for m in bench[table]}
                    emitted = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_bad_arguments_fail_without_a_result(self):
        binary = run.build()
        proc = subprocess.run(
            [str(binary), "--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
