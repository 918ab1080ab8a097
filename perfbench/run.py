#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload gpu_halo --seed 1 --seconds 20 --trace 0

Builds perfbench (perfbench.cpp, against the repository sources) into
.bench_build/perfbench, runs one workload in a closed loop for --seconds,
checks every job's per-step statistics history against the serial
ReferenceSim on the same inputs (cached per workload, seed and inputs in
perfbench/cache/) and checks that every exact count repeats across jobs.
The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Workloads and metrics are
documented in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
CACHE = os.path.join(HERE, "cache")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("gpu_halo", "gpu_dense", "cpu_lung")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_s": "s",
}

GPU_PHASES = ("t_cells", "epithelial", "concentrations", "halo",
              "reduce_stats", "tile_sweep")
CPU_PHASES = GPU_PHASES[:-1]

PER_LAYER = {
    "pgas.barriers_per_rank_step": "count",
    "pgas.puts_per_rank_step": "count",
    "pgas.put_bytes_per_step": "B",
    "pgas.rpcs_per_step": "count",
    "pgas.reductions_per_step": "count",
    "pgas.barrier_wait_share": "ratio",
    "pgas.barrier_ns": "ns",
    "pgas.put_ns_per_kib": "ns/KiB",
    "pgas.allreduce_ns": "ns",
    "pgas.rpc_ns": "ns",
    "gpusim.launches_per_step": "count",
    "gpusim.threads_per_step": "count",
    "gpusim.atomics_per_step": "count",
    "gpusim.global_bytes_per_step": "B",
    "gpusim.run_ns_per_thread": "ns",
    "gpusim.ns_per_thread": "ns",
    "gpusim.ns_per_bind": "ns",
    "gpusim.ns_per_block_thread": "ns",
    "gpusim.ns_per_launch": "ns",
    **{f"simcov_gpu.{p}_ms": "ms" for p in GPU_PHASES},
    **{f"simcov_cpu.{p}_ms": "ms" for p in CPU_PHASES},
    "core.reference_s": "s",
    "core.stencil_ns_per_voxel": "ns",
    "core.rng_ns_per_draw": "ns",
    "obs.trace_overhead": "ratio",
    "obs.base_wall_s": "s",
    "harness.inputs_s": "s",
}

class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds perfbench incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True, timeout=880)


def perfbench(*args):
    proc = subprocess.run([BINARY, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=175, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(map(str, args))} "
                         f"exited {proc.returncode}")
    return json.loads(proc.stdout)


# Row layout of a history entry: virus_total, chem_total, six epithelial
# state counts, tcells_tissue, extravasated, tcells_vascular.  The first two
# are sums of floats that each engine reduces in its own order, so they
# agree with the reference to rounding, not bits.  Everything else, and the
# full voxel state, must match exactly.
SUMMED_COLUMNS = (0, 1)
SUM_RTOL = 1e-9


def history_mismatch(history, ref_history):
    """First (step, column) where `history` departs from the reference, or
    None when it matches."""
    if len(history) != len(ref_history):
        return (min(len(history), len(ref_history)), "length")
    for step, (row, ref) in enumerate(zip(history, ref_history)):
        for col, (v, r) in enumerate(zip(row, ref)):
            if col in SUMMED_COLUMNS:
                if abs(v - r) > SUM_RTOL * max(abs(v), abs(r)):
                    return (step, col)
            elif v != r:
                return (step, col)
    return None


def model_digest():
    """Digest of the sources ReferenceSim is built from (src/core, src/util)."""
    h = hashlib.sha256()
    for layer in ("core", "util"):
        folder = os.path.join(ROOT, "src", layer)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), "rb") as f:
                h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


def reference(workload, seed, inputs_digest, fresh):
    """The serial ReferenceSim's per-step state digests and history for the
    inputs of (workload, seed): from the cache, or by running it and caching
    the result.  The cache is keyed by the inputs' digest and the model's
    sources, so a change to the input generators, the parameters or the
    model's rules never meets a stale reference.  `fresh` is a reference
    perfbench already ran in this invocation (trace runs); it must agree
    with the cache exactly."""
    path = os.path.join(
        CACHE, f"{workload}-seed{seed}-{inputs_digest}-{model_digest()}.json")
    cached = None
    if os.path.isfile(path):
        with open(path) as f:
            cached = json.load(f)
    if fresh is None:
        if cached is not None:
            return cached, 0
        log(f"computing the reference for {workload} seed {seed} (cached after)")
        out = perfbench("reference", "--workload", workload, "--seed", seed)
        if out["inputs_digest"] != inputs_digest:
            raise BenchError("reference inputs differ from the run's inputs")
        fresh = out["reference"]
    failed = int(cached is not None and
                 (cached["digests"], cached["history"]) !=
                 (fresh["digests"], fresh["history"]))
    if cached is None:
        os.makedirs(CACHE, exist_ok=True)
        with open(path, "w") as f:
            json.dump(fresh, f)
    return fresh, failed


def check_jobs(result, ref):
    """Checks every job of a run; returns (attempted, failed, problems).

    The check job's per-step full-state digests must equal the reference's;
    every job's history must match the reference's; every job on the
    workload's own engine must repeat the check job's history bit for bit;
    and the exact counts and modeled_s must repeat across the timed and
    traced jobs."""
    jobs = result["jobs"]
    check = jobs[0]
    counted = [j for j in jobs if j["kind"] in ("timed", "traced")]
    problems = []
    for i, job in enumerate(jobs):
        where = f"job {i} ({job['kind']}, {job['engine']})"
        bad = history_mismatch(job["history"], ref["history"])
        if "digests" in job and job["digests"] != ref["digests"]:
            step = next(s for s, (a, b) in enumerate(
                zip(job["digests"] + [None], ref["digests"])) if a != b)
            problems.append(f"{where}: voxel state differs from ReferenceSim "
                            f"at step {step}")
        elif bad is not None:
            problems.append(f"{where}: history differs from ReferenceSim at "
                            f"step {bad[0]}, column {bad[1]}")
        elif job["engine"] == check["engine"] and job["history"] != check["history"]:
            problems.append(f"{where}: history differs from the check job's")
        elif job["kind"] in ("timed", "traced") and (
                job["counts"], job["modeled_s"]) != (
                counted[0]["counts"], counted[0]["modeled_s"]):
            problems.append(f"{where}: exact counts or modeled_s differ from "
                            "the first timed job's")
    return len(jobs), len(problems), problems


def low_decile(values):
    """The 10th percentile.  On a shared host interference only adds time,
    so the fastest jobs are the cleanest; but the single fastest of some 40
    four-rank jobs is a lucky schedule, as far off as the slow ones."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(result):
    """The timings are low deciles over the timed jobs (README: Load shape)."""
    timed = [j for j in result["jobs"] if j["kind"] == "timed"]
    return {
        "wall_s": low_decile([j["wall_s"] for j in timed]),
        "cpu_s": low_decile([j["cpu_s"] for j in timed]),
        # Input generation plus backend construction, initialise and
        # teardown: the call's wall outside its step loop.
        "setup_s": low_decile([j["inputs_s"] + j["wall_s"] - j["loop_s"]
                               for j in timed]),
        "peak_rss_mb": result["peak_rss_mb"],
        "modeled_s": timed[0]["modeled_s"],
    }


def per_layer(result):
    jobs = result["jobs"]
    timed = [j for j in jobs if j["kind"] == "timed"]
    traced = [j for j in jobs if j["kind"] == "traced"]
    companion = next(j for j in jobs if j["kind"] == "companion")
    ranks = result["machine"]["ranks"]
    steps = result["steps"]
    c = timed[0]["counts"]
    micro = result["micro"]
    m = {
        "pgas.barriers_per_rank_step": c["barriers"] / (ranks * steps),
        "pgas.puts_per_rank_step": c["puts"] / (ranks * steps),
        "pgas.put_bytes_per_step": c["put_bytes"] / steps,
        "pgas.rpcs_per_step": c["rpcs"] / steps,
        "pgas.reductions_per_step": c["reductions"] / steps,
        "pgas.barrier_wait_share": median(
            j["barrier_wait_ns"] / (ranks * j["loop_s"] * 1e9) for j in timed),
        "gpusim.launches_per_step": c["launches"] / steps,
        "gpusim.threads_per_step": c["threads"] / steps,
        "gpusim.atomics_per_step": c["atomics"] / steps,
        "gpusim.global_bytes_per_step": c["global_bytes"] / steps,
        "core.reference_s": result["reference"]["reference_s"],
        "obs.base_wall_s": median(j["wall_s"] for j in timed),
        "harness.inputs_s": median(j["inputs_s"] for j in timed),
    }
    for layer, values in micro.items():
        if isinstance(values, dict):
            for k, v in values.items():
                m[f"{layer}.{k}"] = v
    m["obs.trace_overhead"] = (median(j["wall_s"] for j in traced)
                               / m["obs.base_wall_s"] - 1.0)
    # Dispatch cost per executed virtual-GPU thread: step-loop rank-time over
    # threads.  cpu_lung never dispatches, so its companion GPU job on the
    # same inputs supplies it.
    gpu_jobs = timed if result["engine"] == "gpu" else [companion]
    m["gpusim.run_ns_per_thread"] = median(
        ranks * j["loop_s"] * 1e9 / j["counts"]["threads"] for j in gpu_jobs)
    # Phase ms per step (max over ranks): the workload's engine from its
    # traced jobs, the other engine from the companion job.
    for engine, phases in (("gpu", GPU_PHASES), ("cpu", CPU_PHASES)):
        src = traced if result["engine"] == engine else [companion]
        for p in phases:
            m[f"simcov_{engine}.{p}_ms"] = median(j["phase_ms"][p] for j in src)
    return m


def report(metrics, units):
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def run(args):
    build()
    os.makedirs(OUT, exist_ok=True)
    result = perfbench(
        "run", "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace,
        *(["--trace-out", os.path.join(OUT, f"trace-{args.workload}.json")]
          if args.trace else []))
    ref, ref_failed = reference(args.workload, args.seed,
                                result["inputs_digest"], result.get("reference"))
    attempted, failed, problems = check_jobs(result, ref)
    for p in problems:
        log("CHECK FAILED:", p)
    failed += ref_failed
    attempted += ref_failed

    machine = result["machine"]
    inputs = {"foi": result["foi"], "empty_voxels": result["empty_voxels"]}
    if args.trace:
        # The message size the put microbench used.
        inputs["halo_msg_bytes"] = result["micro"]["halo_msg_bytes"]
    print("machine:", json.dumps(machine))
    print("inputs:", json.dumps(inputs))
    if machine["oversubscribed"]:
        print(f"WARNING: {machine['ranks']} ranks on {machine['nproc']} "
              "hardware threads; wall-clock numbers include time slicing")
    metrics = (report(per_layer(result), PER_LAYER) if args.trace
               else report(end_to_end(result), END_TO_END))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "machine": machine, "steps": result["steps"],
                   **inputs, **line}, f, indent=1)
    print(json.dumps(line))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)


if __name__ == "__main__":
    main()
