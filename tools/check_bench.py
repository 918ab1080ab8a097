#!/usr/bin/env python3
"""Validate and regression-gate the BENCH_*.json bench reports.

Every bench binary writes a machine-readable ``BENCH_<name>.json``
(schema ``simcov-bench/1``, see src/obs/report.hpp).  This script does
two independent jobs:

1. **Schema validation** — structural checks every report must pass on
   any machine: required fields present, the per-(src,dst) comm matrix
   sums exactly to the aggregate comm counters, drift rows are
   internally consistent, and no shape check failed.

2. **Regression gate** — compare against committed baselines in
   ``bench/baselines/``.  Metrics are classed by how machine-dependent
   they are:

   * *exact*   — comm counts (excluding ``barrier_wait_ns``), the comm
                 matrix, params, ranks, backend, shape-check verdicts,
                 and any free-form metric whose name starts with
                 ``exact.`` (deterministic counters a bench opts into
                 gating, e.g. field_sweep's bytes-per-voxel-step).
                 These are deterministic; any difference is a failure.
   * *modeled* — ``modeled_s`` / ``modeled_by_phase_s`` come from the
                 cost model and are deterministic in principle, but tiny
                 float reassociation across compilers is tolerated:
                 relative drift <= 2% warns, an *increase* beyond 2%
                 fails, a decrease beyond 2% warns (likely a genuine
                 model change — refresh the baseline).
   * *measured* — wall-clock numbers vary by machine; reported only,
                 unless ``--measured-factor F`` is given, which fails a
                 report whose measured_wall_s exceeds baseline * F.

Baselines are *normalized*: machine fingerprint, measured phase
breakdowns, drift rows and free-form metrics are stripped so committed
baselines stay machine-independent (a single reference
``measured_wall_s`` per config is kept for --measured-factor, and
``exact.``-prefixed metrics are kept and gated exactly).

Reports from profiled GPU runs additionally carry a ``kernels`` section
(KernelProf, src/obs/profile.hpp): per-(phase, kernel) roofline drift
rows whose shares decompose the enclosing phase's drift row.  When
present it is validated for internal consistency: divergence arithmetic,
bytes vs per-buffer attribution, achieved-GB/s vs bytes/wall, and each
phase's kernel rows (including the ``<host>`` remainder) summing to the
phase's measured seconds.  Baselines strip the section (wall times are
machine-dependent).

Reports from memscope runs carry a ``memory`` section (MemScope,
src/obs/memscope.hpp): the per-buffer registry, per-category peaks, the
memory drift rows against perfmodel/mem_model.hpp, and the OS RSS
reconciliation.  When present it is validated for internal consistency:
category sums and per-buffer peak sums must equal ``registry_peak_bytes``
exactly, every buffer's peak must cover its live bytes, drift divergence
arithmetic must hold, and ``underflows`` must be zero.  The registry
byte counts are deterministic, so the section (minus the
machine-dependent ``vm_rss_kb`` / ``vm_hwm_kb`` / ``rss_samples``
fields) is kept in baselines and regression-gated as *exact* — a peak
that moves without a layout change is a failure.

Reports from critpath runs carry a ``criticalpath`` section (CritPath,
src/obs/critpath.hpp): per-phase critical-path shares, the binding-rank
table, straggler churn, the max/mean imbalance factor and ranked what-if
speedup projections.  When present it is validated for internal
consistency: phase ``critical_share`` sums to 1 and matches
``critical_s`` row by row, ``ranks_bound`` steps sum exactly to
``steps``, ``churn == binding_switches/(steps-1)``, the what-if Amdahl
arithmetic (``speedup``/``improvement``/``projected_s``) holds row by
row, the critical path cannot exceed the measured wall, and
``critical_s + tail_s`` reconciles with the backend's own step-loop
wall (``step_wall_s``, which excludes init/teardown): overshoot gates
at 5% (it can only be double counting), undershoot at 20% (scheduler
time under rank oversubscription is real wall no rank can attribute).
Baselines strip the section (all its fields are wall-time derived),
like ``kernels``.

Usage:
  python3 tools/check_bench.py [REPORT.json ...]
      No reports given: checks every BENCH_*.json in the current
      directory.  A report without a committed baseline gets schema
      validation plus a warning.
  python3 tools/check_bench.py --update-baselines [REPORT.json ...]
      Rewrite bench/baselines/<name>.json from the given (or found)
      reports.  Commit the result.
  python3 tools/check_bench.py --require-kernels [REPORT.json ...]
      Additionally fail any GPU config without a kernels section (CI
      uses this to prove profiled runs actually profiled).
  python3 tools/check_bench.py --require-memory [REPORT.json ...]
      Additionally fail any cpu/gpu config without a memory section (CI
      uses this to prove memscope runs actually accounted their bytes).
  python3 tools/check_bench.py --require-criticalpath [REPORT.json ...]
      Additionally fail any cpu/gpu config without a criticalpath
      section (CI uses this to prove critpath runs actually analyzed
      their steps).
  python3 tools/check_bench.py --diff A.json B.json
      Compare two reports of the same bench: per-phase and per-kernel
      drift deltas (B relative to A), no baseline involved.

Exit status: 0 = all checks passed (warnings allowed), 1 = any failure.
"""

import argparse
import glob
import json
import os
import sys

SCHEMA = "simcov-bench/1"
MODELED_RTOL = 0.02
# report "comm" aggregate key -> matrix edge key
MATRIX_SUMS = {
    "puts": "puts",
    "put_bytes": "put_bytes",
    "rpcs_sent": "rpcs",
    "rpc_bytes": "rpc_bytes",
}
COMM_EXACT_KEYS = [
    "rpcs_sent", "rpc_bytes", "puts", "put_bytes", "barriers",
    "reductions", "reduction_bytes", "broadcasts", "broadcast_bytes",
]  # everything except barrier_wait_ns, which is wall time


class Log:
    def __init__(self):
        self.failures = 0
        self.warnings = 0

    def fail(self, ctx, msg):
        self.failures += 1
        print(f"FAIL  {ctx}: {msg}")

    def warn(self, ctx, msg):
        self.warnings += 1
        print(f"WARN  {ctx}: {msg}")

    def note(self, ctx, msg):
        print(f"note  {ctx}: {msg}")


def validate(report, ctx, log, require_kernels=False, require_memory=False,
             require_criticalpath=False):
    """Machine-independent structural checks on one report."""
    if report.get("schema") != SCHEMA:
        log.fail(ctx, f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
        return
    for key in ("bench", "experiment", "machine", "configs", "shape_checks",
                "metrics"):
        if key not in report:
            log.fail(ctx, f"missing top-level key {key!r}")
            return
    for check in report["shape_checks"]:
        if not check.get("ok", False):
            log.fail(ctx, f"shape check failed: {check.get('claim')!r}")
    for cfg in report["configs"]:
        cctx = f"{ctx} [{cfg.get('label', '?')}]"
        for key in ("label", "backend", "ranks", "params", "measured_wall_s",
                    "modeled_s", "measured_by_phase_s", "modeled_by_phase_s",
                    "drift", "comm"):
            if key not in cfg:
                log.fail(cctx, f"missing config key {key!r}")
                return
        comm = cfg["comm"]
        matrix = comm.get("matrix", [])
        if comm.get("matrix_pairs") != len(matrix):
            log.fail(cctx, f"matrix_pairs={comm.get('matrix_pairs')} but "
                           f"matrix has {len(matrix)} edges")
        edges = [(e["src"], e["dst"]) for e in matrix]
        if edges != sorted(edges):
            log.fail(cctx, "comm matrix is not sorted by (src, dst)")
        if len(edges) != len(set(edges)):
            log.fail(cctx, "comm matrix has duplicate (src, dst) edges")
        for src, dst in edges:
            if not (0 <= src < cfg["ranks"] and 0 <= dst < cfg["ranks"]):
                log.fail(cctx, f"matrix edge ({src},{dst}) outside "
                               f"[0,{cfg['ranks']})")
        # The core invariant: per-pair traffic sums exactly to aggregates.
        for agg_key, edge_key in MATRIX_SUMS.items():
            total = sum(e[edge_key] for e in matrix)
            if total != comm.get(agg_key):
                log.fail(cctx, f"sum(matrix.{edge_key})={total} != "
                               f"comm.{agg_key}={comm.get(agg_key)}")
        for row in cfg["drift"]:
            want = row["measured_share"] - row["modeled_share"]
            if abs(row["divergence"] - want) > 1e-9:
                log.fail(cctx, f"drift[{row['phase']}].divergence="
                               f"{row['divergence']} != measured_share - "
                               f"modeled_share = {want}")
        if "kernels" in cfg:
            validate_kernels(cfg, cctx, log)
        elif require_kernels and cfg.get("backend") == "gpu":
            log.fail(cctx, "GPU config has no kernels section "
                           "(--require-kernels)")
        if "memory" in cfg:
            validate_memory(cfg, cctx, log)
        elif require_memory and cfg.get("backend") in ("gpu", "cpu"):
            log.fail(cctx, "config has no memory section (--require-memory)")
        if "criticalpath" in cfg:
            validate_criticalpath(cfg, cctx, log)
        elif require_criticalpath and cfg.get("backend") in ("gpu", "cpu"):
            log.fail(cctx, "config has no criticalpath section "
                           "(--require-criticalpath)")


KERNEL_ROW_KEYS = [
    "phase", "kernel", "launches", "measured_s", "measured_share",
    "modeled_s", "modeled_share", "divergence", "bytes", "achieved_gbps",
    "arithmetic_intensity", "roofline_util", "buffers",
]
# Per-phase kernel wall-time sums must land within 5% of the phase's
# measured seconds (the <host> remainder row makes the sum exact up to
# clamping, so 5% only absorbs clock granularity on sub-ms phases).
KERNEL_PHASE_SUM_RTOL = 0.05


def validate_kernels(cfg, cctx, log):
    """Internal consistency of the KernelProf roofline rows."""
    by_phase = {}
    for row in cfg["kernels"]:
        for key in KERNEL_ROW_KEYS:
            if key not in row:
                log.fail(cctx, f"kernels row missing key {key!r}: {row}")
                return
        want = row["measured_share"] - row["modeled_share"]
        if abs(row["divergence"] - want) > 1e-9:
            log.fail(cctx, f"kernels[{row['phase']}/{row['kernel']}]."
                           f"divergence={row['divergence']} != "
                           f"measured_share - modeled_share = {want}")
        buf_bytes = sum(b["read_bytes"] + b["write_bytes"]
                        for b in row["buffers"].values())
        if row["kernel"] != "<host>" and buf_bytes != row["bytes"]:
            log.fail(cctx, f"kernels[{row['phase']}/{row['kernel']}].bytes="
                           f"{row['bytes']} != per-buffer sum {buf_bytes}")
        if row["measured_s"] > 0.0 and row["bytes"] > 0.0:
            want_gbps = row["bytes"] / row["measured_s"] / 1e9
            if abs(row["achieved_gbps"] - want_gbps) > 1e-6 * max(1.0,
                                                                  want_gbps):
                log.fail(cctx, f"kernels[{row['phase']}/{row['kernel']}]."
                               f"achieved_gbps={row['achieved_gbps']} != "
                               f"bytes/wall = {want_gbps}")
        if row["roofline_util"] < 0.0:
            log.fail(cctx, f"kernels[{row['phase']}/{row['kernel']}]."
                           f"roofline_util is negative")
        by_phase.setdefault(row["phase"], []).append(row)
    measured_phases = cfg.get("measured_by_phase_s", {})
    for phase, rows in by_phase.items():
        total = measured_phases.get(phase)
        if total is None or total <= 0.0:
            continue  # e.g. the setup pseudo-phase has no PhaseClock counter
        # Only phases with a wall-clock total have a defined remainder.
        if not any(r["kernel"] == "<host>" for r in rows):
            log.fail(cctx, f"kernels phase {phase!r} has no <host> "
                           f"remainder row")
        ksum = sum(r["measured_s"] for r in rows)
        if abs(ksum - total) > KERNEL_PHASE_SUM_RTOL * total:
            log.fail(cctx, f"kernels phase {phase!r}: row sum {ksum:g} s "
                           f"vs measured phase {total:g} s (> "
                           f"{KERNEL_PHASE_SUM_RTOL * 100:.0f}% apart)")


MEMORY_KEYS = [
    "registry_peak_bytes", "registry_live_bytes", "peak_live_bytes",
    "device_peak_bytes", "alloc_events", "free_events", "underflows",
    "categories", "buffers", "drift", "vm_rss_kb", "vm_hwm_kb",
    "rss_samples",
]
MEMORY_BUFFER_KEYS = ["name", "category", "peak_bytes", "live_bytes",
                      "allocs", "frees"]
MEMORY_DRIFT_KEYS = ["category", "measured_bytes", "measured_share",
                     "modeled_bytes", "modeled_share", "divergence"]
# vm_rss_kb / vm_hwm_kb / rss_samples are machine- (and run-) dependent;
# everything else in the memory section is deterministic registry math.
MEMORY_MACHINE_KEYS = ("vm_rss_kb", "vm_hwm_kb", "rss_samples")


def validate_memory(cfg, cctx, log):
    """Internal consistency of the MemScope memory section."""
    mem = cfg["memory"]
    for key in MEMORY_KEYS:
        if key not in mem:
            log.fail(cctx, f"memory section missing key {key!r}")
            return
    for row in mem["buffers"]:
        for key in MEMORY_BUFFER_KEYS:
            if key not in row:
                log.fail(cctx, f"memory buffer row missing key {key!r}: {row}")
                return
        if row["peak_bytes"] < row["live_bytes"]:
            log.fail(cctx, f"memory buffer {row['name']!r}: peak_bytes="
                           f"{row['peak_bytes']} < live_bytes="
                           f"{row['live_bytes']}")
    names = [b["name"] for b in mem["buffers"]]
    if names != sorted(names):
        log.fail(cctx, "memory buffers are not sorted by name")
    if len(names) != len(set(names)):
        log.fail(cctx, "memory buffers have duplicate names")
    # The core invariant: every byte is attributed, the same total three
    # ways (registry, per-category, per-buffer).
    total = mem["registry_peak_bytes"]
    cat_sum = sum(mem["categories"].values())
    if cat_sum != total:
        log.fail(cctx, f"sum(memory.categories)={cat_sum} != "
                       f"memory.registry_peak_bytes={total}")
    buf_sum = sum(b["peak_bytes"] for b in mem["buffers"])
    if buf_sum != total:
        log.fail(cctx, f"sum(memory.buffers.peak_bytes)={buf_sum} != "
                       f"memory.registry_peak_bytes={total}")
    for b in mem["buffers"]:
        if mem["categories"].get(b["category"]) is None:
            log.fail(cctx, f"memory buffer {b['name']!r} category "
                           f"{b['category']!r} absent from categories map")
    for row in mem["drift"]:
        for key in MEMORY_DRIFT_KEYS:
            if key not in row:
                log.fail(cctx, f"memory drift row missing key {key!r}: {row}")
                return
        want = row["measured_share"] - row["modeled_share"]
        if abs(row["divergence"] - want) > 1e-9:
            log.fail(cctx, f"memory drift[{row['category']}].divergence="
                           f"{row['divergence']} != measured_share - "
                           f"modeled_share = {want}")
    if mem["underflows"] != 0:
        log.fail(cctx, f"memory.underflows={mem['underflows']} "
                       f"(byte accounting went below zero somewhere)")
    if mem["registry_live_bytes"] > mem["peak_live_bytes"]:
        log.fail(cctx, f"memory.registry_live_bytes="
                       f"{mem['registry_live_bytes']} > peak_live_bytes="
                       f"{mem['peak_live_bytes']}")


def normalize_memory(mem):
    """Memory section with the machine-dependent RSS fields stripped."""
    return {k: v for k, v in mem.items() if k not in MEMORY_MACHINE_KEYS}


CRITPATH_KEYS = [
    "steps", "ranks", "critical_s", "mean_rank_s", "imbalance_factor",
    "binding_switches", "churn", "wait_s", "step_wall_s", "tail_s",
    "phases", "ranks_bound", "whatif",
]
CRITPATH_PHASE_KEYS = ["phase", "critical_s", "critical_share",
                       "attributed_wait_s", "mean_s", "max_s"]
CRITPATH_RANK_KEYS = ["rank", "steps_bound", "share"]
CRITPATH_WHATIF_KEYS = ["name", "phase", "factor", "projected_s",
                        "speedup", "improvement"]
# The what-if rows obs::build_critpath_report produces.
CRITPATH_WHATIF_NAMES = ("concentrations@modeled", "halo@overlapped",
                         "rebalance@mean")
# Wall reconciliation runs twice: one-sided against measured_wall_s (the
# critical path is inside it, but init/teardown inflate the wall on small
# configs, so only "cannot exceed" is gated) and against the backend's own
# step_wall_s (which excludes init/teardown): the critical path plus the
# observability tail (step-loop host work outside the phase spans, reported
# as tail_s) must reconcile with the step-loop wall.  The bound is
# asymmetric: overshoot (crit + tail > wall) can only be a double-counting
# bug, so it gates at 5%; undershoot is wall time no rank could attribute —
# on an oversubscribed machine (more ranks than cores, as in the 8-rank CPU
# correctness runs on a small CI box) the scheduler parks every thread at
# once and the wall advances with nobody running — so it gates looser, at
# 20%.  (The vectorized concentrations sweep shrank the attributed work per
# step while that fixed scheduler overhead stayed put, which pushed the
# oversubscribed CPU correctness runs past the previous 15% allowance.)
CRITPATH_WALL_RTOL = 0.05
CRITPATH_WALL_UNDERSHOOT_RTOL = 0.20
CRITPATH_SHARE_ATOL = 1e-6


def validate_criticalpath(cfg, cctx, log):
    """Internal consistency of the CritPath criticalpath section."""
    cp = cfg["criticalpath"]
    for key in CRITPATH_KEYS:
        if key not in cp:
            log.fail(cctx, f"criticalpath section missing key {key!r}")
            return
    steps = cp["steps"]
    if steps <= 0:
        log.fail(cctx, "criticalpath.steps is not positive")
        return
    if cp["ranks"] != cfg["ranks"]:
        log.fail(cctx, f"criticalpath.ranks={cp['ranks']} != config ranks="
                       f"{cfg['ranks']}")
    num_steps = cfg.get("params", {}).get("num_steps")
    if num_steps is not None and steps != num_steps:
        log.fail(cctx, f"criticalpath.steps={steps} != params.num_steps="
                       f"{num_steps}")
    crit = cp["critical_s"]
    if crit <= 0.0:
        log.fail(cctx, "criticalpath.critical_s is not positive")
        return
    # Phase rows: shares are fractions of the critical path and sum to 1.
    share_sum = 0.0
    phase_sum = 0.0
    for row in cp["phases"]:
        for key in CRITPATH_PHASE_KEYS:
            if key not in row:
                log.fail(cctx, f"criticalpath phase row missing key "
                               f"{key!r}: {row}")
                return
        want_share = row["critical_s"] / crit
        if abs(row["critical_share"] - want_share) > CRITPATH_SHARE_ATOL:
            log.fail(cctx, f"criticalpath[{row['phase']}].critical_share="
                           f"{row['critical_share']} != critical_s/total = "
                           f"{want_share}")
        if row["max_s"] < row["mean_s"] - CRITPATH_SHARE_ATOL:
            log.fail(cctx, f"criticalpath[{row['phase']}].max_s="
                           f"{row['max_s']} < mean_s={row['mean_s']}")
        if row["attributed_wait_s"] < 0.0:
            log.fail(cctx, f"criticalpath[{row['phase']}]."
                           f"attributed_wait_s is negative")
        share_sum += row["critical_share"]
        phase_sum += row["critical_s"]
    if abs(share_sum - 1.0) > CRITPATH_SHARE_ATOL:
        log.fail(cctx, f"criticalpath phase critical_share sums to "
                       f"{share_sum}, want 1")
    if abs(phase_sum - crit) > CRITPATH_SHARE_ATOL * max(1.0, crit):
        log.fail(cctx, f"sum(criticalpath.phases.critical_s)={phase_sum} != "
                       f"critical_s={crit}")
    # Binding-rank rows: every step has exactly one binding rank.
    bound_sum = 0
    for row in cp["ranks_bound"]:
        for key in CRITPATH_RANK_KEYS:
            if key not in row:
                log.fail(cctx, f"criticalpath rank row missing key "
                               f"{key!r}: {row}")
                return
        if not 0 <= row["rank"] < cp["ranks"]:
            log.fail(cctx, f"criticalpath rank {row['rank']} outside "
                           f"[0,{cp['ranks']})")
        want_share = row["steps_bound"] / steps
        if abs(row["share"] - want_share) > CRITPATH_SHARE_ATOL:
            log.fail(cctx, f"criticalpath rank {row['rank']}: share="
                           f"{row['share']} != steps_bound/steps = "
                           f"{want_share}")
        bound_sum += row["steps_bound"]
    if bound_sum != steps:
        log.fail(cctx, f"sum(criticalpath.ranks_bound.steps_bound)="
                       f"{bound_sum} != steps={steps}")
    # Churn / imbalance arithmetic.
    want_churn = cp["binding_switches"] / (steps - 1) if steps > 1 else 0.0
    if abs(cp["churn"] - want_churn) > CRITPATH_SHARE_ATOL:
        log.fail(cctx, f"criticalpath.churn={cp['churn']} != "
                       f"binding_switches/(steps-1) = {want_churn}")
    if cp["imbalance_factor"] < 1.0 - CRITPATH_SHARE_ATOL:
        log.fail(cctx, f"criticalpath.imbalance_factor="
                       f"{cp['imbalance_factor']} < 1")
    if cp["wait_s"] < 0.0:
        log.fail(cctx, "criticalpath.wait_s is negative")
    # Sanity vs the measured wall: the critical path is inside the step
    # loop, which is inside measured_wall_s.
    wall = cfg.get("measured_wall_s", 0.0)
    if wall > 0.0 and crit > wall * (1.0 + CRITPATH_WALL_RTOL):
        log.fail(cctx, f"criticalpath.critical_s={crit:g} exceeds "
                       f"measured_wall_s={wall:g} by more than "
                       f"{CRITPATH_WALL_RTOL * 100:.0f}%")
    # Reconciliation vs the backend's own step-loop wall (excludes init and
    # teardown): phases plus the observability tail tile the loop, so
    # critical_s + tail_s must agree with step_wall_s — overshoot within
    # CRITPATH_WALL_RTOL (double counting), undershoot within
    # CRITPATH_WALL_UNDERSHOOT_RTOL (scheduler time under oversubscription).
    step_wall = cp["step_wall_s"]
    tail = cp["tail_s"]
    if step_wall <= 0.0:
        log.fail(cctx, "criticalpath.step_wall_s is not positive")
    elif tail < 0.0:
        log.fail(cctx, "criticalpath.tail_s is negative")
    elif crit + tail - step_wall > step_wall * CRITPATH_WALL_RTOL:
        log.fail(cctx, f"criticalpath.critical_s={crit:g} + tail_s="
                       f"{tail:g} overshoots step_wall_s={step_wall:g} "
                       f"by more than {CRITPATH_WALL_RTOL * 100:.0f}%")
    elif step_wall - (crit + tail) > \
            step_wall * CRITPATH_WALL_UNDERSHOOT_RTOL:
        log.fail(cctx, f"criticalpath.critical_s={crit:g} + tail_s="
                       f"{tail:g} leaves more than "
                       f"{CRITPATH_WALL_UNDERSHOOT_RTOL * 100:.0f}% of "
                       f"step_wall_s={step_wall:g} unattributed")
    # What-if rows: Amdahl over the critical path, sorted best-first.
    prev_improvement = None
    for row in cp["whatif"]:
        for key in CRITPATH_WHATIF_KEYS:
            if key not in row:
                log.fail(cctx, f"criticalpath whatif row missing key "
                               f"{key!r}: {row}")
                return
        wctx = f"{cctx} whatif[{row['name']}]"
        if not 0.0 <= row["factor"] <= 1.0:
            log.fail(wctx, f"factor={row['factor']} outside [0,1]")
        if row["projected_s"] > crit * (1.0 + CRITPATH_SHARE_ATOL):
            log.fail(wctx, f"projected_s={row['projected_s']} exceeds "
                           f"critical_s={crit}")
        if row["projected_s"] > 0.0:
            want_speedup = crit / row["projected_s"]
            if abs(row["speedup"] - want_speedup) > \
                    CRITPATH_SHARE_ATOL * max(1.0, want_speedup):
                log.fail(wctx, f"speedup={row['speedup']} != critical_s/"
                               f"projected_s = {want_speedup}")
        want_improvement = 1.0 - row["projected_s"] / crit
        if abs(row["improvement"] - want_improvement) > CRITPATH_SHARE_ATOL:
            log.fail(wctx, f"improvement={row['improvement']} != "
                           f"1 - projected_s/critical_s = "
                           f"{want_improvement}")
        if row["name"] not in CRITPATH_WHATIF_NAMES:
            log.fail(wctx, f"name={row['name']!r} is no known what-if row "
                           f"(want one of {', '.join(CRITPATH_WHATIF_NAMES)})")
        if prev_improvement is not None and \
                row["improvement"] > prev_improvement + CRITPATH_SHARE_ATOL:
            log.fail(cctx, "criticalpath.whatif rows are not sorted by "
                           "improvement (best first)")
        prev_improvement = row["improvement"]


def rel_diff(new, old):
    if old == 0.0:
        return 0.0 if new == 0.0 else float("inf")
    return (new - old) / old


def compare_modeled(new, old, ctx, log):
    d = rel_diff(new, old)
    if abs(d) <= MODELED_RTOL:
        return
    if d > 0:
        log.fail(ctx, f"modeled time regressed: {old:g} -> {new:g} s "
                      f"({d * 100:+.1f}%, tolerance {MODELED_RTOL * 100:.0f}%)")
    else:
        log.warn(ctx, f"modeled time improved: {old:g} -> {new:g} s "
                      f"({d * 100:+.1f}%) — refresh the baseline if intended")


def compare(report, baseline, ctx, log, measured_factor):
    """Regression gate: report vs a normalized committed baseline."""
    new_cfgs = {c["label"]: c for c in report["configs"]}
    old_cfgs = {c["label"]: c for c in baseline["configs"]}
    for label in old_cfgs:
        if label not in new_cfgs:
            log.fail(ctx, f"config {label!r} present in baseline but missing "
                          f"from report")
    for label in new_cfgs:
        if label not in old_cfgs:
            log.warn(ctx, f"config {label!r} has no baseline entry "
                          f"(new config? refresh baselines)")
    for label, old in old_cfgs.items():
        new = new_cfgs.get(label)
        if new is None:
            continue
        cctx = f"{ctx} [{label}]"
        # exact class
        for key in ("backend", "ranks", "params"):
            if new[key] != old[key]:
                log.fail(cctx, f"{key} changed: {old[key]!r} -> {new[key]!r}")
        for key in COMM_EXACT_KEYS:
            if new["comm"][key] != old["comm"][key]:
                log.fail(cctx, f"comm.{key} changed: {old['comm'][key]} -> "
                               f"{new['comm'][key]}")
        old_matrix = old["comm"]["matrix"]
        new_matrix = new["comm"]["matrix"]
        if new_matrix != old_matrix:
            log.fail(cctx, f"comm matrix changed ({len(old_matrix)} -> "
                           f"{len(new_matrix)} edges, or traffic differs)")
        # memory registry bytes are deterministic, so exact class too
        if "memory" in old:
            if "memory" not in new:
                log.fail(cctx, "memory section present in baseline but "
                               "missing from report")
            elif normalize_memory(new["memory"]) != \
                    normalize_memory(old["memory"]):
                log.fail(cctx, "memory section changed (registry peaks, "
                               "categories, buffers or drift differ from "
                               "baseline — layout change? refresh baselines)")
        elif "memory" in new:
            log.warn(cctx, "memory section is new (no baseline entry — "
                           "refresh baselines)")
        # modeled class
        compare_modeled(new["modeled_s"], old["modeled_s"], cctx, log)
        phases = set(old["modeled_by_phase_s"]) | set(new["modeled_by_phase_s"])
        for phase in sorted(phases):
            compare_modeled(new["modeled_by_phase_s"].get(phase, 0.0),
                            old["modeled_by_phase_s"].get(phase, 0.0),
                            f"{cctx} phase {phase}", log)
        # measured class
        old_wall = old.get("measured_wall_s", 0.0)
        new_wall = new["measured_wall_s"]
        if old_wall > 0.0:
            log.note(cctx, f"measured wall {new_wall:.3g} s "
                           f"(baseline machine: {old_wall:.3g} s, "
                           f"x{new_wall / old_wall:.2f})")
            if measured_factor is not None and \
                    new_wall > old_wall * measured_factor:
                log.fail(cctx, f"measured wall {new_wall:.3g} s exceeds "
                               f"baseline {old_wall:.3g} s * factor "
                               f"{measured_factor:g}")
    # "exact."-prefixed metrics are deterministic counters a bench opted
    # into gating (e.g. field_sweep's bytes-per-voxel-step); exact class.
    old_metrics = baseline.get("metrics", {})
    new_metrics = {k: v for k, v in report.get("metrics", {}).items()
                   if k.startswith("exact.")}
    for key, val in sorted(old_metrics.items()):
        if key not in new_metrics:
            log.fail(ctx, f"exact metric disappeared: {key!r}")
        elif new_metrics[key] != val:
            log.fail(ctx, f"exact metric {key} changed: {val!r} -> "
                          f"{new_metrics[key]!r} — refresh baselines if "
                          f"intended")
    for key in sorted(new_metrics):
        if key not in old_metrics:
            log.warn(ctx, f"exact metric {key!r} has no baseline entry "
                          f"(refresh baselines)")
    # shape-check verdicts are exact
    old_checks = {c["claim"]: c["ok"] for c in baseline.get("shape_checks", [])}
    new_checks = {c["claim"]: c["ok"] for c in report.get("shape_checks", [])}
    for claim, ok in old_checks.items():
        if claim not in new_checks:
            log.fail(ctx, f"shape check disappeared: {claim!r}")
        elif new_checks[claim] != ok:
            log.fail(ctx, f"shape check flipped {ok} -> {new_checks[claim]}: "
                          f"{claim!r}")


def normalize(report):
    """Strip machine-dependent content so the committed baseline is stable."""
    out = {
        "schema": report["schema"],
        "bench": report["bench"],
        "experiment": report["experiment"],
        "configs": [],
        "shape_checks": report["shape_checks"],
        # Free-form metrics are stripped except the "exact." namespace:
        # those are deterministic counters the bench opted into gating.
        "metrics": {k: v for k, v in report.get("metrics", {}).items()
                    if k.startswith("exact.")},
    }
    # cfg["kernels"] (KernelProf rows) and cfg["criticalpath"] (CritPath)
    # are intentionally absent below: their wall-time-derived fields are
    # machine-dependent.  cfg["memory"] is kept (minus the RSS fields):
    # registry byte counts are exact.
    for cfg in report["configs"]:
        norm = {
            "label": cfg["label"],
            "backend": cfg["backend"],
            "ranks": cfg["ranks"],
            "params": cfg["params"],
            # One machine-specific reference point, used only by
            # --measured-factor; everything else measured is stripped.
            "measured_wall_s": cfg["measured_wall_s"],
            "modeled_s": cfg["modeled_s"],
            "modeled_by_phase_s": cfg["modeled_by_phase_s"],
            "comm": {k: v for k, v in cfg["comm"].items()
                     if k != "barrier_wait_ns"},
        }
        if "memory" in cfg:
            norm["memory"] = normalize_memory(cfg["memory"])
        out["configs"].append(norm)
    return out


def dump_baseline(b):
    """One line per config / shape check: diffs after a baseline refresh show
    which configuration moved without expanding thousand-edge comm matrices
    across ten thousand lines."""
    def c(v):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))
    lines = ["{"]
    lines.append(f' "schema": {c(b["schema"])},')
    lines.append(f' "bench": {c(b["bench"])},')
    lines.append(f' "experiment": {c(b["experiment"])},')
    lines.append(f' "metrics": {c(b.get("metrics", {}))},')
    lines.append(' "configs": [')
    for i, cfg in enumerate(b["configs"]):
        comma = "," if i + 1 < len(b["configs"]) else ""
        lines.append(f"  {c(cfg)}{comma}")
    lines.append(" ],")
    lines.append(' "shape_checks": [')
    for i, chk in enumerate(b["shape_checks"]):
        comma = "," if i + 1 < len(b["shape_checks"]) else ""
        lines.append(f"  {c(chk)}{comma}")
    lines.append(" ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diff_reports(path_a, path_b):
    """Prints per-phase and per-kernel drift deltas of B relative to A."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    a_cfgs = {c["label"]: c for c in a.get("configs", [])}
    b_cfgs = {c["label"]: c for c in b.get("configs", [])}
    shared = [label for label in a_cfgs if label in b_cfgs]
    for label in sorted(set(a_cfgs) ^ set(b_cfgs)):
        side = "A" if label in a_cfgs else "B"
        print(f"note  config {label!r} only in {side}")
    for label in shared:
        ca, cb = a_cfgs[label], b_cfgs[label]
        print(f"== {label} ==")
        print(f"  modeled_s       {ca['modeled_s']:.6g} -> "
              f"{cb['modeled_s']:.6g} "
              f"({rel_diff(cb['modeled_s'], ca['modeled_s']) * 100:+.2f}%)")
        print(f"  measured_wall_s {ca['measured_wall_s']:.6g} -> "
              f"{cb['measured_wall_s']:.6g}")
        da = {r["phase"]: r for r in ca.get("drift", [])}
        db = {r["phase"]: r for r in cb.get("drift", [])}
        if da or db:
            print("  phase drift (divergence = measured_share - "
                  "modeled_share, delta in points):")
        for phase in sorted(set(da) | set(db)):
            va = da.get(phase, {}).get("divergence", 0.0)
            vb = db.get(phase, {}).get("divergence", 0.0)
            print(f"    {phase:<16} {va * 100:+7.2f}pp -> {vb * 100:+7.2f}pp "
                  f"(delta {(vb - va) * 100:+.2f}pp)")
        ka = {(r["phase"], r["kernel"]): r for r in ca.get("kernels", [])}
        kb = {(r["phase"], r["kernel"]): r for r in cb.get("kernels", [])}
        if ka or kb:
            print("  kernel drift:")
        for key in sorted(set(ka) | set(kb)):
            ra, rb = ka.get(key), kb.get(key)
            va = ra["divergence"] if ra else 0.0
            vb = rb["divergence"] if rb else 0.0
            ma = ra["measured_s"] if ra else 0.0
            mb = rb["measured_s"] if rb else 0.0
            tag = "" if (ra and rb) else ("  [only in B]" if rb
                                          else "  [only in A]")
            print(f"    {key[0]}/{key[1]:<22} measured {ma:.6g} -> {mb:.6g} s"
                  f", divergence {va * 100:+7.2f}pp -> {vb * 100:+7.2f}pp "
                  f"(delta {(vb - va) * 100:+.2f}pp){tag}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="*",
                    help="BENCH_*.json files (default: ./BENCH_*.json)")
    ap.add_argument("--baselines", default=None,
                    help="baseline dir (default: <repo>/bench/baselines)")
    ap.add_argument("--update-baselines", action="store_true",
                    help="rewrite baselines from the given reports")
    ap.add_argument("--measured-factor", type=float, default=None,
                    help="fail if measured_wall_s > baseline * FACTOR "
                         "(default: measured times are report-only)")
    ap.add_argument("--require-kernels", action="store_true",
                    help="fail GPU configs lacking a KernelProf kernels "
                         "section")
    ap.add_argument("--require-memory", action="store_true",
                    help="fail cpu/gpu configs lacking a MemScope memory "
                         "section")
    ap.add_argument("--require-criticalpath", action="store_true",
                    help="fail cpu/gpu configs lacking a CritPath "
                         "criticalpath section")
    ap.add_argument("--diff", action="store_true",
                    help="compare exactly two reports: per-phase and "
                         "per-kernel drift deltas (no baselines)")
    args = ap.parse_args()

    if args.diff:
        if len(args.reports) != 2:
            print("FAIL  --diff needs exactly two report paths")
            return 1
        return diff_reports(args.reports[0], args.reports[1])

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_dir = args.baselines or os.path.join(repo_root, "bench",
                                                  "baselines")
    reports = args.reports or sorted(glob.glob("BENCH_*.json"))
    if not reports:
        print("FAIL  no BENCH_*.json reports found (run the bench binaries "
              "from the directory holding their output, or pass paths)")
        return 1

    log = Log()
    for path in reports:
        ctx = os.path.basename(path)
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            log.fail(ctx, f"unreadable or invalid JSON: {e}")
            continue
        validate(report, ctx, log, require_kernels=args.require_kernels,
                 require_memory=args.require_memory,
                 require_criticalpath=args.require_criticalpath)
        name = report.get("bench")
        if not name:
            continue
        baseline_path = os.path.join(baseline_dir, f"{name}.json")
        if args.update_baselines:
            os.makedirs(baseline_dir, exist_ok=True)
            with open(baseline_path, "w") as f:
                f.write(dump_baseline(normalize(report)))
            log.note(ctx, f"baseline written: {baseline_path}")
            continue
        if not os.path.exists(baseline_path):
            log.warn(ctx, f"no committed baseline at {baseline_path} — "
                          f"schema-checked only (use --update-baselines)")
            continue
        with open(baseline_path) as f:
            baseline = json.load(f)
        compare(report, baseline, ctx, log, args.measured_factor)

    verb = "updated" if args.update_baselines else "checked"
    print(f"{verb} {len(reports)} report(s): {log.failures} failure(s), "
          f"{log.warnings} warning(s)")
    return 1 if log.failures else 0


if __name__ == "__main__":
    sys.exit(main())
