#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then runs the workloads as the
benchmark defines them, with --seconds 0: one check job and three timed
jobs per run.  The suite takes about two minutes, most of it the serial
reference of a new cpu_lung seed.
"""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def short_run(workload, seed):
    return run.perfbench("run", "--workload", workload, "--seed", seed,
                         "--seconds", 0, "--trace", 0)


def benchmark_line(workload, seed, trace):
    """The last stdout line of a full run.py invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for section, units in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            names = [m["name"] for m in spec[section]]
            self.assertEqual(len(names), len(set(names)), section)
            self.assertEqual(dict((m["name"], m["unit"]) for m in spec[section]),
                             units, section)
            for m in spec[section]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        self.assertIn("setup_s", run.END_TO_END)


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_exact_counts_repeat_across_runs_of_one_seed(self):
        a, b = short_run("gpu_halo", 5), short_run("gpu_halo", 5)
        for x, y in zip(a["jobs"], b["jobs"]):
            self.assertEqual(x["history"], y["history"])
            if x["kind"] == "timed":
                self.assertEqual(x["counts"], y["counts"])
                self.assertEqual(x["modeled_s"], y["modeled_s"])
        self.assertGreater(a["jobs"][1]["counts"]["puts"], 0)

    def test_perturbed_history_fails_the_output_check(self):
        result = short_run("cpu_lung", 5)
        ref, _ = run.reference("cpu_lung", 5, result["inputs_digest"], None)
        self.assertEqual(run.check_jobs(result, ref)[1], 0)

        def failures(mutate):
            bad = copy.deepcopy(result)
            mutate(bad["jobs"])
            return run.check_jobs(bad, ref)[1]

        def bump_sum(jobs):  # a float sum beyond reduction-order rounding
            jobs[2]["history"][-1][0] *= 1 + 1e-6

        def bump_count(jobs):  # one more T cell in tissue
            jobs[2]["history"][len(jobs[2]["history"]) // 2][8] += 1

        def bump_state(jobs):  # a voxel-state digest of the check job
            jobs[0]["digests"][-1] ^= 1

        def bump_counter(jobs):  # an exact pgas counter
            jobs[2]["counts"]["barriers"] += 1

        for mutate in (bump_sum, bump_count, bump_state, bump_counter):
            self.assertEqual(failures(mutate), 1, mutate.__name__)

    def test_reference_cache_follows_the_inputs_not_only_the_seed(self):
        result = short_run("gpu_dense", 7)
        digest = result["inputs_digest"]
        saved = run.CACHE
        with tempfile.TemporaryDirectory() as cache:
            run.CACHE = cache
            try:
                ref, _ = run.reference("gpu_dense", 7, digest, None)
                # The same seed's reference for other inputs (an earlier
                # input generator or parameter set) sits in the cache.
                stale = copy.deepcopy(ref)
                stale["history"][-1][8] += 1
                model = run.model_digest()
                with open(os.path.join(
                        cache, f"gpu_dense-seed7-{int(digest) ^ 1}-{model}.json"),
                        "w") as f:
                    json.dump(stale, f)
                os.remove(os.path.join(
                    cache, f"gpu_dense-seed7-{digest}-{model}.json"))
                ref, failed = run.reference("gpu_dense", 7, digest, None)
            finally:
                run.CACHE = saved
        self.assertEqual(failed, 0)
        self.assertEqual(run.check_jobs(result, ref)[1], 0)

    def test_new_seed_changes_inputs_but_not_the_metric_set(self):
        for workload in run.WORKLOADS:
            digests = {run.perfbench("inputs", "--workload", workload,
                                     "--seed", seed)["inputs_digest"]
                       for seed in (1, 2)}
            self.assertEqual(len(digests), 2, workload)
        lines = [benchmark_line("gpu_dense", seed, 0) for seed in (1, 2)]
        for line in lines:
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertEqual(set(line["metrics"]), set(run.END_TO_END))
        self.assertNotEqual(lines[0]["metrics"]["modeled_s"],
                            lines[1]["metrics"]["modeled_s"])

    def test_traced_run_reports_every_per_layer_metric(self):
        line = benchmark_line("gpu_halo", 3, 1)
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(run.PER_LAYER))
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], run.PER_LAYER[name])


if __name__ == "__main__":
    unittest.main()
