"""The benchmark's own tests, at tiny sizes.

    python3 bench/selftest.py

They run every workload end to end (untraced and traced), check that the
answer checks reject wrong answers, that the metric tables agree with
``BENCHMARK.json``, and that the benchmark refuses to run without the
package sources.  Scratch files go under ``.bench_work/`` of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# every per-layer metric the benchmark's specification names
NAMED_LAYER_METRICS = """
pictures.enumerate.self_s pictures.enumerate.calls pictures.enumerate.empty_ratio
pictures.picture_init.count pictures.picture_init.self_s pictures.bump.calls
pictures.bump.self_s pictures.insert.self_s pictures.delete.self_s
hook_rule.pw_set.calls hook_rule.pw_set.nonempty_ratio hook_rule.pw_set.self_s
hook_rule.picture_counts.self_s hook_rule.typed_picture.count
hook_rule.typed_picture.self_s hook_rule.balanced_cocorner.calls
hook_rule.balanced_cocorner.self_s hook_rule.balanced_cocorner.hit_ratio
hook_rule.balanced_corner.self_s hook_rule.decompose.self_s hook_rule.to_json.self_s
tableaux.delete.calls tableaux.delete.self_s lr.lr_coefficient.calls
lr.lr_coefficient.hit_ratio lr.lr_coefficient.self_s lr.exterior_via_lr.self_s
oracle.character_table.calls oracle.character_table.self_s oracle.cache_load.self_s
oracle.kronecker.calls oracle.kronecker.self_s oracle.exterior_multiplicity.self_s
verify.verify_range.self_s parallel.ordered_map.self_s cli.main.self_s
trace.overhead_ratio
""".split()


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class MetricTables(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [tuple(m) for m in run.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [m[:3] for m in run.PER_LAYER],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_named_layer_metric_is_listed(self):
        listed = {m[0] for m in run.PER_LAYER}
        self.assertEqual(set(NAMED_LAYER_METRICS) - listed, set())
        self.assertTrue(all(m[3] for m in run.PER_LAYER), "each metric says what it moves")


class TinyRuns(unittest.TestCase):
    def run_all(self, trace: int) -> dict:
        proc = bench_run("--workload", "all", "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result["metrics"]

    def test_untraced_reports_every_end_to_end_metric(self):
        metrics = self.run_all(0)
        for workload in workloads.WORKLOADS:
            for name, unit, _ in run.END_TO_END:
                entry = metrics[f"{workload}.{name}"]
                self.assertEqual(entry["unit"], unit)
                self.assertGreater(entry["value"], 0, f"{workload} {name}")

    def test_traced_reports_every_layer_metric_and_same_answers(self):
        metrics = self.run_all(1)
        for workload in workloads.WORKLOADS:
            for name, unit, _, _ in run.PER_LAYER:
                self.assertEqual(metrics[f"{workload}.{name}"]["unit"], unit)
            record = json.loads(
                (run.WORK / "results" / f"{workload}-seed7-trace1.json").read_text()
            )
            self.assertEqual(record["identity_violations"], [])
            self.assertTrue((ROOT / record["span_file"]).is_file())
        self.assertEqual(metrics["decompose-large.oracle.kronecker.calls"]["value"], 0)
        self.assertGreater(metrics["verify-sweep.oracle.kronecker.calls"]["value"], 0)


class AnswerChecks(unittest.TestCase):
    def answered(self, cls):
        bench = cls(7, str(run.WORK / "chartables.json"), tiny=True)
        op = bench.ops[0]
        return op, bench.run(op)[1]

    def test_decompose_check_rejects_a_wrong_count(self):
        op, answer = self.answered(workloads.DecomposeLarge)
        self.assertEqual(workloads.DecomposeLarge.check(op, answer)[0], [])
        table = json.loads(answer["stdout"])
        table["rows"][0]["pw"] += 1
        wrong = dict(answer, stdout=json.dumps(table))
        self.assertNotEqual(workloads.DecomposeLarge.check(op, wrong)[0], [])
        table["rows"][0]["pw"] -= 1
        present = [row["mu"] for row in table["rows"]]
        absent = [mu for mu in workloads.partitions(sum(op[1])) if list(mu) not in present]
        self.assertTrue(absent)
        table["rows"].append({"mu": list(absent[-1]), "ph": 0, "pw": 0, "by_zeta": []})
        zero_row = dict(answer, stdout=json.dumps(table))
        self.assertNotEqual(workloads.DecomposeLarge.check(op, zero_row)[0], [])

    def test_bijection_check_rejects_wrong_answers(self):
        op, answer = self.answered(workloads.PicturesBijection)
        self.assertEqual(workloads.PicturesBijection.check(op, answer)[0], [])
        for key in ("ph", "pw", "not_one", "broken"):
            wrong = dict(answer, **{key: answer[key] + 1})
            self.assertNotEqual(workloads.PicturesBijection.check(op, wrong)[0], [], key)

    def test_verify_check_rejects_a_failed_sweep(self):
        good = {"code": 0, "stdout": "checks: 833, all pass\n"}
        self.assertEqual(workloads.VerifySweep.check(("verify", 5, 5), good)[0], [])
        bad = {"code": 1, "stdout": "checks: 833, failures: 1\n"}
        self.assertNotEqual(workloads.VerifySweep.check(("verify", 5, 5), bad)[0], [])


class Refusal(unittest.TestCase):
    def test_refuses_without_package_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench_run("--workload", "verify-sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    unittest.main()
