"""Smoke tests for the benchmark at its tiny size.

    python3 -m pytest -q perfbench
"""

import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.pin_blas_threads()
run.import_package()

import inexad  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def _values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


class TinyWorkloads(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result, _ = run.run_workload(name, 3, 0, 0, "tiny", SPEC)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), names)
                for metric, value in _values(result).items():
                    self.assertTrue(math.isfinite(value) and value > 0, metric)

    def test_traced_run_reports_every_layer_metric_and_counts_repeat(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first, _ = run.run_workload(name, 4, 0, 1, "tiny", SPEC)
                second, _ = run.run_workload(name, 4, 0, 1, "tiny", SPEC)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(list(second["metrics"]), names)
                first, second = _values(first), _values(second)
                for count in run.EXACT_COUNTS:
                    self.assertEqual(first[count], second[count], count)
                self.assertEqual(second["trace.count_mismatches"], 0)
                self.assertGreater(second["network.mlp_forward.calls"], 0)
                if name == "score-review":
                    self.assertEqual(second["training.train.calls"], 0)

    def test_tracer_restores_every_wrapped_name(self):
        with tracing.Tracer() as tracer:
            self.assertIsNot(inexad.training.score_batch, inexad.scorer.score_batch)
            inexad.scorer.score_batch(inexad.scorer.ae_init(2, 0), [[0.0, 1.0]])
        self.assertEqual(tracer.calls["scorer.score_batch"], 1)
        self.assertIs(inexad.training.score_batch, inexad.scorer.score_batch)
        self.assertIs(inexad.harness.score_batch, inexad.scorer.score_batch)
        for layer in tracing.LAYERS:
            module = sys.modules[f"inexad.{layer}"]
            for attr, value in vars(module).items():
                self.assertFalse(hasattr(value, "__wrapped__"), f"{layer}.{attr}")

    def test_paper_auc_means_equal_run_experiment(self):
        workload = workloads.PaperSynthetic(5, "tiny", str(run.OUT))
        workload.setup()
        self.assertEqual(workload.run_pass().failed, 0)
        report = inexad.harness.run_experiment(inexad.cli.cli_parse(workload.argv))
        self.assertEqual(workload.auc_means,
                         {mode: res.mean for mode, res in report.modes.items()})


class OutputChecks(unittest.TestCase):
    def test_wrong_set_level_auc_fails_every_review(self):
        original = inexad.metrics.empirical_inexact_auc

        def off_by_one_pair(sets, normal_scores):
            return original(sets, normal_scores) + 1.0 / (len(sets) * len(normal_scores))

        with mock.patch.object(inexad.metrics, "empirical_inexact_auc", off_by_one_pair):
            result, _ = run.run_workload("score-review", 0, 0, 0, "tiny", SPEC)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_test_auc_fails_the_experiment_rounds(self):
        with mock.patch.object(inexad.harness, "empirical_auc", lambda a, n: 1.5):
            result, _ = run.run_workload("paper-synthetic", 0, 0, 0, "tiny", SPEC)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_exits_nonzero_without_the_package(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "perfbench").glob("*.*"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "score-review",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
