#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "obs/memscope.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace simcov::harness {

std::vector<VoxelId> RunSpec::resolve_foi() const {
  if (!foi.empty()) return foi;
  const Grid grid(params.dim_x, params.dim_y, params.dim_z);
  return foi_uniform_random(grid, params.num_foi, params.seed);
}

namespace {

/// Runs `sim` (which returns a backend's spmd::RunResult) and times the
/// call on the host steady clock — the measured side of the drift report
/// (the modeled side comes from the cost model).
template <typename Sim>
BackendResult timed(Sim&& sim) {
  const obs::Nanos t0 = obs::now_ns();
  BackendResult out{sim()};
  out.measured_wall_s = static_cast<double>(obs::now_ns() - t0) / 1e9;
  return out;
}

}  // namespace

BackendResult run_reference(const RunSpec& spec) {
  const std::vector<VoxelId> foi = spec.resolve_foi();
  return timed([&] {
    ReferenceSim sim(spec.params, foi, spec.empty_voxels);
    sim.run(spec.params.num_steps);
    spmd::RunResult r;
    r.history = sim.history();
    return r;
  });
}

BackendResult run_cpu(const RunSpec& spec, int cpu_ranks) {
  cpu::CpuSimOptions opt;
  static_cast<spmd::RunSetup&>(opt) = spec;
  opt.num_ranks = cpu_ranks;
  const std::vector<VoxelId> foi = spec.resolve_foi();
  return timed([&] {
    return cpu::run_cpu_sim(spec.params, foi, opt, spec.empty_voxels);
  });
}

BackendResult run_gpu(const RunSpec& spec, int gpu_ranks,
                      gpu::GpuVariant variant) {
  gpu::GpuSimOptions opt;
  static_cast<spmd::RunSetup&>(opt) = spec;
  opt.num_ranks = gpu_ranks;
  opt.variant = variant;
  const std::vector<VoxelId> foi = spec.resolve_foi();
  return timed([&] {
    return gpu::run_gpu_sim(spec.params, foi, opt, spec.empty_voxels);
  });
}

double speedup(const BackendResult& cpu, const BackendResult& gpu) {
  SIMCOV_REQUIRE(gpu.cost.total_s > 0.0, "GPU runtime is zero");
  return cpu.cost.total_s / gpu.cost.total_s;
}

obs::BenchConfig run_report(
    const RunSpec& spec, const BackendResult& result,
    const std::map<std::string, std::map<int, double>>& counters) {
  using obs::BenchReport;
  obs::BenchConfig cfg;
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
  cfg.measured_wall_s = result.measured_wall_s;
  cfg.modeled_s = result.cost.total_s;
  cfg.measured_by_phase_s = BenchReport::measured_phases_from(counters);
  cfg.modeled_by_phase_s = BenchReport::modeled_phases_from(result.cost);
  cfg.drift =
      BenchReport::drift_from(cfg.measured_by_phase_s, cfg.modeled_by_phase_s);
  if (!result.kernel_profile.empty()) {
    // Per-kernel roofline rows decomposing the phase drift above; without
    // metrics their phase shares read n/a but the per-kernel wall times and
    // bandwidths are still real.  The harness always models the default
    // machine spec.
    cfg.kernels = obs::kernel_drift_rows(
        result.kernel_profile, cfg.measured_by_phase_s,
        cfg.modeled_by_phase_s, perfmodel::MachineSpec::perlmutter_like());
  }
  if (!result.memory.empty()) {
    // The measured per-buffer registry, its category drift against the
    // memory model, the device allocator watermark and the OS RSS
    // reconciliation.  One final unconditional sample lets short runs
    // (fewer phase boundaries than the sampler stride) report real numbers.
    obs::rss_sampler().sample_now();
    cfg.memory = result.memory;
    cfg.mem_drift = obs::memory_drift_rows(result.memory.categories(),
                                           result.mem_modeled_by_category);
    cfg.device_peak_bytes = result.device_total.peak_allocated_bytes;
    cfg.rss = obs::rss_sampler().last();
    cfg.rss_samples = obs::rss_sampler().samples();
  }
  if (result.critpath.steps() > 0) {
    // Per-phase critical shares, binding-rank counts and the what-if
    // projections, priced against the cost model the drift rows use.
    std::vector<std::string> names;
    std::vector<double> modeled;
    for (int p = 0; p < perfmodel::kNumPhases; ++p) {
      names.emplace_back(perfmodel::phase_name(static_cast<perfmodel::Phase>(p)));
      modeled.push_back(result.cost.by_phase[static_cast<std::size_t>(p)]);
    }
    cfg.criticalpath = obs::build_critpath_report(result.critpath, names,
                                                  modeled);
    cfg.criticalpath.step_wall_s = result.step_loop_wall_s;
    cfg.criticalpath.tail_s = result.step_tail_s;
  }
  cfg.comm_total = result.comm_total();
  cfg.comm_matrix = BenchReport::matrix_from(result.comm_by_rank);
  return cfg;
}

namespace {

/// Fails fast on an unwritable output path (bad directory, permissions).
/// Opens in append mode so an existing file's contents survive the probe;
/// the real write at flush time truncates it anyway.
void require_writable(const std::string& path, const char* what) {
  std::ofstream probe(path, std::ios::out | std::ios::app);
  if (!probe) {
    throw Error(std::string(what) + " output path '" + path +
                "' is not writable");
  }
}

}  // namespace

void configure_observability(const obs::Config& config) {
  if (!config.trace_path.empty()) {
    require_writable(config.trace_path, "trace");
    obs::tracer().enable(config.trace_path, config.trace_ring);
  }
  obs::metrics().set_series_cap(config.series_cap);
  if (!config.metrics_path.empty()) {
    require_writable(config.metrics_path, "metrics");
    obs::metrics().enable(config.metrics_path);
  }
}

void finish_observability(unsigned summary_sections) {
  obs::Tracer& tr = obs::tracer();
  if (tr.enabled() && !tr.path().empty()) {
    const std::string path = tr.path();
    const std::size_t events = tr.event_count();
    tr.flush();
    std::fprintf(stderr, "trace written to %s (%zu events)\n", path.c_str(),
                 events);
  }
  obs::MetricsRegistry& m = obs::metrics();
  if (m.enabled()) {
    obs::print_summary(stderr, obs::BenchConfig{},
                       summary_sections & obs::kSummaryPhases, m.counters());
    if (!m.path().empty()) {
      m.flush();
      std::fprintf(stderr, "metrics written to %s\n", m.path().c_str());
    }
  }
}

}  // namespace simcov::harness
