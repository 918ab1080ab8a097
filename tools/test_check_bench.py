#!/usr/bin/env python3
"""Unit tests for tools/check_bench.py.

Covers the schema validators (comm matrix, drift, kernels/memory/
criticalpath sections and their --require-* flags), the regression
tolerance classes (exact / modeled / measured), and baseline
normalization (kernels + criticalpath stripped, memory kept minus the
RSS fields).  Fixtures are built in memory: a minimal valid report plus
targeted mutations, one per invariant, so a validator regression points
at the exact identity it stopped enforcing.

Run directly (``python3 tools/test_check_bench.py``) or via ctest
(``check_bench_unittest``).
"""

import copy
import sys
import unittest

import check_bench


def valid_criticalpath():
    """A criticalpath section satisfying every identity the validator
    checks (shares sum to 1, bound steps sum to steps, churn arithmetic,
    sorted what-if rows, step-wall reconciliation)."""
    return {
        "steps": 10,
        "ranks": 2,
        "critical_s": 1.0,
        "mean_rank_s": 0.9,
        "imbalance_factor": 1.1,
        "binding_switches": 3,
        "churn": 3 / 9,
        "wait_s": 0.2,
        "step_wall_s": 1.04,
        "tail_s": 0.02,
        "phases": [
            {"phase": "t_cells", "critical_s": 0.6, "critical_share": 0.6,
             "attributed_wait_s": 0.1, "mean_s": 0.5, "max_s": 0.6},
            {"phase": "halo", "critical_s": 0.4, "critical_share": 0.4,
             "attributed_wait_s": 0.1, "mean_s": 0.35, "max_s": 0.4},
        ],
        "ranks_bound": [
            {"rank": 0, "steps_bound": 6, "share": 0.6},
            {"rank": 1, "steps_bound": 4, "share": 0.4},
        ],
        "whatif": [
            {"name": "halo@overlapped", "phase": "halo", "factor": 0.0,
             "projected_s": 0.6, "speedup": 1.0 / 0.6,
             "improvement": 0.4},
            {"name": "rebalance@mean", "phase": "all", "factor": 1.0 / 1.1,
             "projected_s": 1.0 / 1.1,
             "speedup": 1.1, "improvement": 1.0 - 1.0 / 1.1},
        ],
    }


def valid_report():
    """A minimal report that passes validate() with zero failures."""
    return {
        "schema": check_bench.SCHEMA,
        "bench": "unittest_fixture",
        "experiment": {"title": "fixture"},
        "machine": {"host": "testhost"},
        "metrics": {},
        "shape_checks": [{"claim": "fixture claim", "ok": True}],
        "configs": [{
            "label": "gpu 2 ranks",
            "backend": "gpu",
            "ranks": 2,
            "params": {"num_steps": 10, "dim_x": 8, "dim_y": 8},
            "measured_wall_s": 1.25,
            "modeled_s": 2.0,
            "measured_by_phase_s": {"t_cells": 0.75, "halo": 0.5},
            "modeled_by_phase_s": {"t_cells": 1.5, "halo": 0.5},
            "drift": [
                {"phase": "t_cells", "measured_share": 0.5,
                 "modeled_share": 0.75, "divergence": -0.25},
            ],
            "comm": {
                "rpcs_sent": 4, "rpc_bytes": 32, "puts": 2, "put_bytes": 16,
                "barriers": 10, "barrier_wait_ns": 12345,
                "reductions": 10, "reduction_bytes": 80,
                "broadcasts": 1, "broadcast_bytes": 8,
                "matrix_pairs": 2,
                "matrix": [
                    {"src": 0, "dst": 1, "puts": 1, "put_bytes": 8,
                     "rpcs": 2, "rpc_bytes": 16},
                    {"src": 1, "dst": 0, "puts": 1, "put_bytes": 8,
                     "rpcs": 2, "rpc_bytes": 16},
                ],
            },
            "criticalpath": valid_criticalpath(),
        }],
    }


def run_validate(report, **kwargs):
    log = check_bench.Log()
    check_bench.validate(report, "test", log, **kwargs)
    return log


class ValidateBasicsTest(unittest.TestCase):
    def test_valid_report_passes(self):
        log = run_validate(valid_report())
        self.assertEqual(log.failures, 0)

    def test_wrong_schema_fails(self):
        report = valid_report()
        report["schema"] = "simcov-bench/0"
        self.assertGreater(run_validate(report).failures, 0)

    def test_failed_shape_check_fails(self):
        report = valid_report()
        report["shape_checks"][0]["ok"] = False
        self.assertGreater(run_validate(report).failures, 0)

    def test_comm_matrix_sum_mismatch_fails(self):
        report = valid_report()
        report["configs"][0]["comm"]["matrix"][0]["put_bytes"] += 1
        self.assertGreater(run_validate(report).failures, 0)

    def test_drift_divergence_mismatch_fails(self):
        report = valid_report()
        report["configs"][0]["drift"][0]["divergence"] = 0.0
        self.assertGreater(run_validate(report).failures, 0)


class CriticalpathValidatorTest(unittest.TestCase):
    def mutate(self, fn):
        """Applies fn to the fixture's criticalpath section, validates."""
        report = valid_report()
        fn(report["configs"][0]["criticalpath"])
        return run_validate(report)

    def test_share_sum_broken_fails(self):
        log = self.mutate(lambda cp: cp["phases"][0].update(
            {"critical_s": 0.5, "critical_share": 0.5}))
        self.assertGreater(log.failures, 0)

    def test_share_not_fraction_of_total_fails(self):
        # Shares still sum to 1 but no longer match critical_s / total.
        def fn(cp):
            cp["phases"][0]["critical_share"] = 0.4
            cp["phases"][1]["critical_share"] = 0.6
        self.assertGreater(self.mutate(fn).failures, 0)

    def test_steps_bound_sum_mismatch_fails(self):
        log = self.mutate(
            lambda cp: cp["ranks_bound"][0].update(
                {"steps_bound": 7, "share": 0.7}))
        self.assertGreater(log.failures, 0)

    def test_churn_arithmetic_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"churn": 0.5})).failures, 0)

    def test_imbalance_below_one_fails(self):
        self.assertGreater(
            self.mutate(
                lambda cp: cp.update({"imbalance_factor": 0.9})).failures, 0)

    def test_whatif_unsorted_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp["whatif"].reverse()).failures, 0)

    def test_whatif_projection_exceeding_critical_fails(self):
        def fn(cp):
            row = cp["whatif"][0]
            row["projected_s"] = cp["critical_s"] * 1.5
            row["speedup"] = 1.0 / 1.5
            row["improvement"] = -0.5
        self.assertGreater(self.mutate(fn).failures, 0)

    def test_whatif_speedup_arithmetic_fails(self):
        self.assertGreater(
            self.mutate(
                lambda cp: cp["whatif"][0].update({"speedup": 9.0})).failures,
            0)

    def test_whatif_unknown_name_fails(self):
        self.assertGreater(
            self.mutate(
                lambda cp: cp["whatif"][0].update(
                    {"name": "halo@batched"})).failures, 0)

    def test_whatif_factor_outside_unit_interval_fails(self):
        self.assertGreater(
            self.mutate(
                lambda cp: cp["whatif"][0].update({"factor": 1.5})).failures, 0)

    def test_critical_exceeding_measured_wall_fails(self):
        report = valid_report()
        report["configs"][0]["measured_wall_s"] = 0.5
        self.assertGreater(run_validate(report).failures, 0)

    def test_step_wall_reconciliation_too_far_fails(self):
        # critical + tail = 1.02 vs step wall 2.0: way past 5%.
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"step_wall_s": 2.0})).failures,
            0)

    def test_step_wall_overshoot_past_5pct_fails(self):
        # critical + tail = 1.02 vs step wall 0.9: overshoot > 5%.
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"step_wall_s": 0.9})).failures,
            0)

    def test_step_wall_undershoot_within_20pct_passes(self):
        # critical + tail = 1.02 vs step wall 1.25: ~18% unattributed —
        # allowed (scheduler time under rank oversubscription).
        self.assertEqual(
            self.mutate(lambda cp: cp.update({"step_wall_s": 1.25})).failures,
            0)

    def test_step_wall_undershoot_past_20pct_fails(self):
        # critical + tail = 1.02 vs step wall 1.30: ~22% unattributed.
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"step_wall_s": 1.30})).failures,
            0)

    def test_nonpositive_step_wall_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"step_wall_s": 0.0})).failures,
            0)

    def test_negative_tail_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"tail_s": -0.01})).failures, 0)

    def test_steps_disagreeing_with_params_fails(self):
        report = valid_report()
        report["configs"][0]["params"]["num_steps"] = 11
        self.assertGreater(run_validate(report).failures, 0)

    def test_ranks_disagreeing_with_config_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp.update({"ranks": 4})).failures, 0)

    def test_missing_key_fails(self):
        self.assertGreater(
            self.mutate(lambda cp: cp.pop("tail_s")).failures, 0)


class RequireFlagsTest(unittest.TestCase):
    def test_missing_section_without_flag_passes(self):
        report = valid_report()
        del report["configs"][0]["criticalpath"]
        self.assertEqual(run_validate(report).failures, 0)

    def test_missing_section_with_flag_fails(self):
        report = valid_report()
        del report["configs"][0]["criticalpath"]
        log = run_validate(report, require_criticalpath=True)
        self.assertGreater(log.failures, 0)

    def test_reference_backend_exempt_from_flag(self):
        report = valid_report()
        cfg = report["configs"][0]
        del cfg["criticalpath"]
        cfg["backend"] = "reference"
        log = run_validate(report, require_criticalpath=True,
                           require_kernels=True, require_memory=True)
        self.assertEqual(log.failures, 0)

    def test_require_kernels_fails_gpu_without_section(self):
        log = run_validate(valid_report(), require_kernels=True)
        self.assertGreater(log.failures, 0)


class ToleranceClassTest(unittest.TestCase):
    def compare(self, new, old):
        log = check_bench.Log()
        check_bench.compare_modeled(new, old, "test", log)
        return log

    def test_within_tolerance_is_silent(self):
        log = self.compare(1.01, 1.0)
        self.assertEqual((log.failures, log.warnings), (0, 0))

    def test_regression_beyond_tolerance_fails(self):
        log = self.compare(1.05, 1.0)
        self.assertEqual(log.failures, 1)

    def test_improvement_beyond_tolerance_warns(self):
        log = self.compare(0.9, 1.0)
        self.assertEqual((log.failures, log.warnings), (0, 1))

    def test_zero_baseline_nonzero_report_fails(self):
        self.assertEqual(self.compare(0.5, 0.0).failures, 1)


class NormalizeTest(unittest.TestCase):
    def test_strips_criticalpath_and_kernels(self):
        report = valid_report()
        report["configs"][0]["kernels"] = [{"kernel": "k"}]
        norm = check_bench.normalize(report)
        cfg = norm["configs"][0]
        self.assertNotIn("criticalpath", cfg)
        self.assertNotIn("kernels", cfg)
        self.assertNotIn("measured_by_phase_s", cfg)
        self.assertNotIn("drift", cfg)

    def test_strips_barrier_wait_but_keeps_comm(self):
        norm = check_bench.normalize(valid_report())
        comm = norm["configs"][0]["comm"]
        self.assertNotIn("barrier_wait_ns", comm)
        self.assertEqual(comm["put_bytes"], 16)

    def test_keeps_memory_minus_rss_fields(self):
        report = valid_report()
        report["configs"][0]["memory"] = {
            "registry_peak_bytes": 100, "vm_rss_kb": 5, "vm_hwm_kb": 6,
            "rss_samples": 7,
        }
        norm = check_bench.normalize(report)
        mem = norm["configs"][0]["memory"]
        self.assertEqual(mem, {"registry_peak_bytes": 100})

    def test_normalized_baseline_roundtrip_compares_clean(self):
        # A report compared against its own normalized baseline must not
        # fail (shape checks equal, comm exact, modeled identical).
        report = valid_report()
        baseline = check_bench.normalize(copy.deepcopy(report))
        log = check_bench.Log()
        check_bench.compare(report, baseline, "test", log,
                            measured_factor=None)
        self.assertEqual(log.failures, 0)

    def test_keeps_only_exact_prefixed_metrics(self):
        report = valid_report()
        report["metrics"] = {"exact.gpu.bytes": 123.0, "step_ns": 4.5e6}
        norm = check_bench.normalize(report)
        self.assertEqual(norm["metrics"], {"exact.gpu.bytes": 123.0})

    def test_exact_metric_change_fails(self):
        report = valid_report()
        report["metrics"] = {"exact.gpu.bytes": 123.0}
        baseline = check_bench.normalize(copy.deepcopy(report))
        report["metrics"]["exact.gpu.bytes"] = 124.0
        log = check_bench.Log()
        check_bench.compare(report, baseline, "test", log,
                            measured_factor=None)
        self.assertEqual(log.failures, 1)

    def test_exact_metric_disappearance_fails_and_new_warns(self):
        report = valid_report()
        report["metrics"] = {"exact.gpu.bytes": 123.0}
        baseline = check_bench.normalize(copy.deepcopy(report))
        report["metrics"] = {"exact.gpu.threads": 7.0}
        log = check_bench.Log()
        check_bench.compare(report, baseline, "test", log,
                            measured_factor=None)
        self.assertEqual(log.failures, 1)  # exact.gpu.bytes disappeared
        self.assertEqual(log.warnings, 1)  # exact.gpu.threads is new

    def test_non_exact_metrics_are_not_gated(self):
        report = valid_report()
        report["metrics"] = {"step_ns": 1.0}
        baseline = check_bench.normalize(copy.deepcopy(report))
        report["metrics"]["step_ns"] = 99.0
        log = check_bench.Log()
        check_bench.compare(report, baseline, "test", log,
                            measured_factor=None)
        self.assertEqual(log.failures, 0)
        self.assertEqual(log.warnings, 0)

    def test_measured_factor_gates_wall_regression(self):
        report = valid_report()
        baseline = check_bench.normalize(copy.deepcopy(report))
        report["configs"][0]["measured_wall_s"] *= 10.0
        log = check_bench.Log()
        check_bench.compare(report, baseline, "test", log,
                            measured_factor=2.0)
        self.assertEqual(log.failures, 1)


if __name__ == "__main__":
    # Silence the validators' FAIL/WARN prints: the tests assert on
    # counters, and interleaved output would bury the unittest dots.
    sys.stdout = sys.stderr
    unittest.main()
