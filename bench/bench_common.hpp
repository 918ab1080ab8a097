#pragma once
// Shared configuration for the figure/table reproduction benches.
//
// Scale mapping (documented in EXPERIMENTS.md): the paper's grids are
// 10,000^2 .. 40,000^2 voxels over 33,120 steps on Perlmutter.  Our
// functional runs shrink every linear dimension 39x (10,000 -> 256) and run
// a fast-spread parameter preset for a few hundred steps; the performance
// model extrapolates per-rank work back to paper scale:
//
//  * GPU backend: one virtual GPU per paper GPU (ranks match 1:1), so
//    area_scale = (10,000/256)^2 ~= 1526 makes each virtual GPU's modeled
//    per-step load equal the paper's per-A100 load.
//  * CPU backend: one rank per 16 paper cores (2048 threads is not a
//    sensible functional configuration), so area_scale = 1526/16 ~= 95.4
//    makes each rank's modeled load equal one paper core's.
//
// Modeled runtimes are therefore per-step comparable to the paper's
// machines; absolute totals are smaller because we run ~100x fewer steps.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace simcov::bench {

constexpr double kGpuAreaScale = 1526.0;
constexpr double kCpuAreaScale = 95.4;
constexpr int kCpuRankCompression = 16;

/// Our CPU rank count standing in for `paper_cores` paper cores.
constexpr int cpu_ranks_for(int paper_cores) {
  return paper_cores / kCpuRankCompression;
}

/// The fast-spread preset used by all performance benches, sized by caller.
inline SimParams bench_params(int dim_x, int dim_y, long long steps,
                              long long foi) {
  SimParams p = SimParams::bench_fast();
  p.dim_x = dim_x;
  p.dim_y = dim_y;
  p.num_steps = steps;
  p.num_foi = foi;
  p.seed = 42;
  return p;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_config,
                         const std::string& our_config) {
  std::string bar(72, '=');
  std::printf("%s\n%s\n", bar.c_str(), experiment.c_str());
  std::printf("paper config : %s\n", paper_config.c_str());
  std::printf("our config   : %s\n", our_config.c_str());
  std::printf("%s\n", bar.c_str());
}

inline void print_shape_check(const std::string& claim, bool holds) {
  std::printf("SHAPE CHECK: %-58s [%s]\n", claim.c_str(),
              holds ? "OK" : "MISS");
}

/// One object per bench binary: the human-readable output and the
/// machine-readable BENCH_<name>.json come from the same recorded runs.
///
/// Usage: construct with the bench name + header strings, route every
/// simulation through run_gpu/run_cpu/run_reference (each wraps the harness
/// call with in-memory metrics so the PhaseClock counters and comm matrix
/// are harvested into the report), record verdicts via shape_check() and
/// scalars via metric(), then finish() — which prints the aggregate
/// measured-vs-modeled drift table to stderr and writes the JSON.
///
/// Note: each instrumented run enables the in-memory metrics registry and
/// disables it afterwards; benches own the process-wide telemetry while
/// they run (SIMCOV_METRICS is ignored inside a bench binary).
class Reporter {
 public:
  Reporter(std::string name, const std::string& experiment,
           const std::string& paper_config, const std::string& our_config)
      : report_(std::move(name)) {
    report_.set_context(experiment, paper_config, our_config);
    print_header(experiment, paper_config, our_config);
  }

  harness::BackendResult run_gpu(
      const std::string& label, const harness::RunSpec& spec, int ranks,
      gpu::GpuVariant variant = gpu::GpuVariant::combined()) {
    // GPU bench runs are always profiled, memory-scoped and critical-path
    // analyzed: KernelProf's counter folding, MemScope's
    // allocation-event-only observation and CritPath's observability-only
    // gather all keep the simulation state bit-identical; the per-kernel
    // rows become the "kernels" section, the per-buffer registry the
    // "memory" section, and the binding-rank analysis the "criticalpath"
    // section of the report.
    harness::RunSpec prof_spec = spec;
    prof_spec.obs.profile = true;
    prof_spec.obs.memscope = true;
    prof_spec.obs.critpath = true;
    return instrumented(label, "gpu", ranks, prof_spec, [&] {
      return harness::run_gpu(prof_spec, ranks, variant);
    });
  }

  harness::BackendResult run_cpu(const std::string& label,
                                 const harness::RunSpec& spec, int ranks) {
    // CPU bench runs carry the memory and criticalpath sections too, so
    // both backends' footprints and load balance are comparable in every
    // report.
    harness::RunSpec mem_spec = spec;
    mem_spec.obs.memscope = true;
    mem_spec.obs.critpath = true;
    return instrumented(label, "cpu", ranks, mem_spec,
                        [&] { return harness::run_cpu(mem_spec, ranks); });
  }

  harness::BackendResult run_reference(const std::string& label,
                                       const harness::RunSpec& spec) {
    return instrumented(label, "reference", 1, spec,
                        [&] { return harness::run_reference(spec); });
  }

  /// Prints the verdict line and records it in the report.
  void shape_check(const std::string& claim, bool holds) {
    print_shape_check(claim, holds);
    report_.add_shape_check(claim, holds);
  }

  /// Records a free-form scalar (micro-benchmark timings, overhead ratios).
  void metric(const std::string& name, double value) {
    report_.add_metric(name, value);
  }

  obs::BenchReport& report() { return report_; }

  /// Prints the aggregate drift table to stderr and writes the JSON.
  void finish() {
    report_.print_drift_summary(stderr);
    report_.write();
    std::fprintf(stderr, "bench report written to %s\n",
                 report_.path().c_str());
  }

 private:
  template <typename RunFn>
  harness::BackendResult instrumented(const std::string& label,
                                      const char* backend, int ranks,
                                      const harness::RunSpec& spec,
                                      RunFn&& run) {
    // Fresh in-memory collection per configuration so the harvested
    // counters (and RSS samples) belong to exactly this run.
    obs::metrics().enable("");
    obs::rss_sampler().reset();
    harness::BackendResult r = run();
    obs::rss_sampler().sample_now();
    const auto counters = obs::metrics().counters();
    obs::metrics().disable();

    obs::BenchConfig cfg;
    cfg.label = label;
    cfg.backend = backend;
    cfg.ranks = ranks;
    cfg.params = {
        {"dim_x", static_cast<double>(spec.params.dim_x)},
        {"dim_y", static_cast<double>(spec.params.dim_y)},
        {"dim_z", static_cast<double>(spec.params.dim_z)},
        {"num_steps", static_cast<double>(spec.params.num_steps)},
        {"num_foi", static_cast<double>(spec.params.num_foi)},
        {"seed", static_cast<double>(spec.params.seed)},
        {"area_scale", spec.area_scale},
        {"decomp_linear",
         spec.decomp == Decomposition::Kind::kLinear ? 1.0 : 0.0},
    };
    cfg.measured_wall_s = r.measured_wall_s;
    cfg.modeled_s = r.cost.total_s;
    cfg.measured_by_phase_s = obs::BenchReport::measured_phases_from(counters);
    cfg.modeled_by_phase_s = obs::BenchReport::modeled_phases_from(r.cost);
    cfg.drift = obs::BenchReport::drift_from(cfg.measured_by_phase_s,
                                             cfg.modeled_by_phase_s);
    if (!r.kernel_profile.empty()) {
      // Per-kernel roofline drift rows decomposing the phase drift above.
      // The harness always models the default machine spec.
      cfg.kernels = obs::kernel_drift_rows(
          r.kernel_profile, cfg.measured_by_phase_s, cfg.modeled_by_phase_s,
          perfmodel::MachineSpec::perlmutter_like());
    }
    if (!r.memory.empty()) {
      // The "memory" section: measured per-buffer registry, category drift
      // against the mem_model prediction, the device allocator watermark,
      // and the OS-side reconciliation samples taken during this run.
      cfg.memory = r.memory;
      cfg.mem_drift = obs::memory_drift_rows(r.memory.categories(),
                                             r.mem_modeled_by_category);
      cfg.device_peak_bytes = r.device_total.peak_allocated_bytes;
      cfg.rss = obs::rss_sampler().last();
      cfg.rss_samples = obs::rss_sampler().samples();
    }
    if (r.critpath.steps() > 0) {
      // The "criticalpath" section: per-phase critical shares, binding-rank
      // counts, and the what-if projections priced against the same cost
      // model the drift rows use.
      cfg.criticalpath = obs::build_critpath_report(
          r.critpath, obs::phase_name_list(), obs::modeled_phase_list(r.cost));
      cfg.criticalpath.step_wall_s = r.step_loop_wall_s;
      cfg.criticalpath.tail_s = r.step_tail_s;
    }
    cfg.comm_total = r.comm_total();
    cfg.comm_matrix = obs::BenchReport::matrix_from(r.comm_by_rank);
    report_.add_config(std::move(cfg));
    return r;
  }

  obs::BenchReport report_;
};

}  // namespace simcov::bench
