#pragma once
// Experiment harness: uniform entry points the benchmark binaries and the
// simcov driver use to run the paper's configurations.
//
// One run goes in as a RunSpec (grid, steps, FOI, seed, and the
// spmd::RunSetup it shares with the backends' options: decomposition, the
// area-scale factor mapping our scaled-down grid to the paper's, and the
// instruments); run_cpu / run_gpu execute it on the requested backend with
// the requested resources and return both the scientific output (time
// series) and the modeled runtime from the performance model.  One record
// comes out: run_report turns the spec and result into the obs::BenchConfig
// that a bench writes to its BENCH JSON and the driver prints with
// obs::print_summary.

#include <map>
#include <string>
#include <vector>

#include "core/foi.hpp"
#include "core/params.hpp"
#include "obs/report.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "spmd/run.hpp"

namespace simcov::harness {

/// One simulation configuration; the rank count and variant are the run
/// calls' arguments.  The spmd::RunSetup base (decomp, area_scale, obs)
/// passes to the backend's options unchanged.
struct RunSpec : spmd::RunSetup {
  SimParams params;
  /// Explicit FOI voxels; when empty, params.num_foi uniform-random seeds
  /// (keyed by params.seed) are generated.
  std::vector<VoxelId> foi;
  /// Voxels with no tissue (airway lumens); empty = solid tissue.
  std::vector<VoxelId> empty_voxels;

  std::vector<VoxelId> resolve_foi() const;
};

/// A backend's spmd::RunResult plus the harness's own measurement.  The
/// serial reference fills only history and measured_wall_s.
struct BackendResult : spmd::RunResult {
  /// Host wall-clock seconds of the simulation call itself (excludes FOI
  /// resolution and report building) — the *measured* side of the
  /// measured-vs-modeled drift report.
  double measured_wall_s = 0.0;
};

/// Serial reference run (no cost model; correctness baseline).
BackendResult run_reference(const RunSpec& spec);

/// SIMCoV-CPU with `cpu_ranks` ranks (one per modeled core).
BackendResult run_cpu(const RunSpec& spec, int cpu_ranks);

/// SIMCoV-GPU with `gpu_ranks` virtual GPUs and the given variant.
BackendResult run_gpu(const RunSpec& spec, int gpu_ranks,
                      gpu::GpuVariant variant = gpu::GpuVariant::combined());

/// The paper's resource tuples pair G GPUs with 32*G CPU cores.
constexpr int cpus_for_gpus(int gpus) { return 32 * gpus; }

/// Formats a speedup annotation as in Figs. 6-8 (CPU runtime / GPU runtime).
double speedup(const BackendResult& cpu, const BackendResult& gpu);

/// The one record of a run: params, measured and modeled seconds by phase
/// with their drift rows, and, where their instrument ran, the kernel drift
/// rows, the memory report (with a final RSS sample taken here), the
/// critical-path report and the comm matrix.  `counters` are the metrics
/// counters the run left (obs::metrics().counters(); empty without
/// metrics, and the record then has no measured phases).  The caller sets
/// label, backend and ranks.
obs::BenchConfig run_report(
    const RunSpec& spec, const BackendResult& result,
    const std::map<std::string, std::map<int, double>>& counters);

/// Points the process-wide tracer and metrics registry (src/obs) at the
/// config's trace and metrics paths (a set path enables its collector, the
/// tracer with the config's ring size) and applies its series cap.  Paths
/// are validated up front — an unwritable path throws simcov::Error
/// immediately rather than after the simulation has run.
void configure_observability(const obs::Config& config);

/// Flushes the trace and metrics to their configured paths and, when metrics
/// were collected, prints the measured per-phase wall-clock breakdown table
/// (obs::print_summary's "phases" section) to stderr — suppressed when
/// `summary_sections` (an obs::SummarySection mask, --summary=) excludes it.
/// Safe to call when observability is disabled (no-op).
void finish_observability(unsigned summary_sections = ~0u);

}  // namespace simcov::harness
