#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/grid.hpp"
#include "core/reference_sim.hpp"
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
  opt.num_ranks = cpu_ranks;
  opt.decomp = spec.decomp;
  opt.area_scale = spec.area_scale;
  opt.obs = spec.obs;
  const std::vector<VoxelId> foi = spec.resolve_foi();
  return timed([&] {
    return cpu::run_cpu_sim(spec.params, foi, opt, spec.empty_voxels);
  });
}

BackendResult run_gpu(const RunSpec& spec, int gpu_ranks,
                      gpu::GpuVariant variant) {
  gpu::GpuSimOptions opt;
  opt.num_ranks = gpu_ranks;
  opt.decomp = spec.decomp;
  opt.variant = variant;
  opt.area_scale = spec.area_scale;
  opt.obs = spec.obs;
  const std::vector<VoxelId> foi = spec.resolve_foi();
  return timed([&] {
    return gpu::run_gpu_sim(spec.params, foi, opt, spec.empty_voxels);
  });
}

double speedup(const BackendResult& cpu, const BackendResult& gpu) {
  SIMCOV_REQUIRE(gpu.cost.total_s > 0.0, "GPU runtime is zero");
  return cpu.cost.total_s / gpu.cost.total_s;
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
    obs::Summary summary;
    summary.sections = summary_sections & obs::kSummaryPhases;
    summary.counters = m.counters();
    summary.print(stderr);
    if (!m.path().empty()) {
      m.flush();
      std::fprintf(stderr, "metrics written to %s\n", m.path().c_str());
    }
  }
}

}  // namespace simcov::harness
