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

#include <chrono>
#include <cstdio>
#include <cstdlib>
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
    cfg.drift = obs::BenchReport::drift_from(counters, r.cost);
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

/// `spec` with every instrument off, whatever the environment says — the
/// base of the overhead gates' "off" and "on" runs.
inline harness::RunSpec all_off(harness::RunSpec spec) {
  spec.obs = obs::Config{};
  return spec;
}

/// Wall nanoseconds per step of an all-instruments-off GPU run.
inline double off_step_ns(const harness::RunSpec& spec, int ranks) {
  const harness::RunSpec off = all_off(spec);
  const auto t0 = std::chrono::steady_clock::now();
  harness::run_gpu(off, ranks);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(spec.params.num_steps);
}

/// Measured cost of the observability layer when it is *disabled*.  The
/// contract (src/obs/trace.hpp) is one relaxed atomic load + branch per
/// span/metric site; this report turns that into a fraction of real step
/// time so the gate survives site-count growth.
struct ObsOverheadReport {
  double ns_per_site = 0.0;     ///< measured cost of one disabled span site
  double sites_per_step = 0.0;  ///< span + metric sites hit per step
  double step_ns = 0.0;         ///< wall time of one step, observability off
  double overhead() const {
    return step_ns > 0.0 ? ns_per_site * sites_per_step / step_ns : 0.0;
  }
};

/// Measures the disabled-observability overhead of `spec` on the GPU
/// backend: (1) times a disabled span site in a tight loop, (2) counts the
/// sites one step actually hits by running once with both collectors on
/// (in-memory, no output files), (3) times a run with observability off.
inline ObsOverheadReport measure_obs_overhead(const harness::RunSpec& spec,
                                              int ranks) {
  ObsOverheadReport r;
  obs::tracer().disable();
  obs::metrics().disable();

  {
    constexpr int kIters = 1 << 21;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      // The relaxed enabled() load in the constructor cannot be hoisted or
      // deleted, so the loop body survives optimization.
      obs::ScopedSpan probe("obs_overhead_probe", 0);
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.ns_per_site =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  }

  {
    obs::tracer().enable("");
    obs::metrics().enable("");
    harness::run_gpu(all_off(spec), ranks);
    const double sites = static_cast<double>(
        obs::tracer().event_count() + obs::tracer().dropped() +
        obs::metrics().datapoint_count());
    obs::tracer().disable();
    obs::metrics().disable();
    r.sites_per_step = sites / static_cast<double>(spec.params.num_steps);
  }
  r.step_ns = off_step_ns(spec, ranks);
  return r;
}

/// Measured cost of the KernelCheck analyzer when it is *disabled*.  The
/// contract (src/gpusim/check.hpp) is one pointer load + branch per
/// GlobalSpan / shared-memory access; like ObsOverheadReport, the gate is
/// expressed as a fraction of real step time so it survives access-count
/// growth.
struct KernelCheckOverheadReport {
  double ns_per_site = 0.0;     ///< measured cost of one disabled check site
  double sites_per_step = 0.0;  ///< instrumented accesses per step
  double step_ns = 0.0;         ///< wall time of one step, checker off
  double overhead() const {
    return step_ns > 0.0 ? ns_per_site * sites_per_step / step_ns : 0.0;
  }
};

/// Measures the disabled-KernelCheck overhead of `spec` on the GPU backend:
/// (1) times the null-checker branch in a tight loop, (2) counts the
/// instrumented accesses one step hits by running once with the checker on,
/// (3) times a checker-off run.  Both runs start from an all-off
/// obs::Config, so an environment-enabled instrument cannot contaminate
/// them.
inline KernelCheckOverheadReport measure_kernel_check_overhead(
    const harness::RunSpec& spec, int ranks) {
  KernelCheckOverheadReport r;

  {
    // The disabled path in GlobalSpan::read/write/atomic_add is exactly
    // `if (chk_) ...` on a pointer member.  Its cost is measured
    // *differentially inside a modeled accessor* (bounds assert + stats
    // bump + the data access), because that is where the branch actually
    // executes: out-of-order cores overlap a predicted-not-taken branch
    // with the surrounding work, so timing it in an empty loop would
    // overstate the cost ~10x.  Minimum over repetitions rejects timer and
    // scheduler noise (noise is strictly additive here).
    constexpr int kIters = 1 << 21;
    constexpr int kReps = 5;
    gpusim::KernelChecker* volatile chk = nullptr;
    std::vector<double> data(4096, 1.0);
    std::uint64_t reads = 0;
    double acc = 0.0;
    const auto accessor_loop = [&](bool with_hook) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) & 4095u;
        if (idx >= data.size()) std::abort();
        ++reads;
        if (with_hook) {
          gpusim::KernelChecker* c = chk;
          if (c != nullptr) {
            c->on_global_access(data.data(), idx,
                                gpusim::KernelChecker::Access::kRead);
          }
        }
        acc += data[idx];
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             kIters;
    };
    accessor_loop(false);  // warm-up
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double diff = accessor_loop(true) - accessor_loop(false);
      if (rep == 0 || diff < best) best = diff;
    }
    // `acc`/`reads` keep the loops alive; fold them into the (never-taken)
    // error path so the compiler cannot drop them.
    if (acc < 0.0 || reads == 0) std::abort();
    r.ns_per_site = best > 0.0 ? best : 0.0;
  }

  harness::RunSpec on = all_off(spec);
  on.obs.kernel_check = true;
  r.sites_per_step =
      static_cast<double>(harness::run_gpu(on, ranks).check_accesses) /
      static_cast<double>(spec.params.num_steps);
  r.step_ns = off_step_ns(spec, ranks);
  return r;
}

/// Measured cost of KernelProf when it is *disabled*.  The contract
/// (src/obs/profile.hpp) is one pointer load + branch per GlobalSpan *bind*
/// (ThreadCtx/BlockCtx::global), not per access; the gate is that branch's
/// cost times the binds one step performs, as a fraction of real step time.
struct ProfileOverheadReport {
  double ns_per_site = 0.0;     ///< measured cost of one disabled bind branch
  double sites_per_step = 0.0;  ///< GlobalSpan binds per step
  double step_ns = 0.0;         ///< wall time of one step, profiler off
  double overhead() const {
    return step_ns > 0.0 ? ns_per_site * sites_per_step / step_ns : 0.0;
  }
};

/// Measures the disabled-KernelProf overhead of `spec` on the GPU backend:
/// (1) times the null-slot branch differentially inside a modeled bind
/// sequence, (2) counts the binds one step performs by running once with the
/// profiler on (KernelProf::total_binds via GpuRunResult::prof_binds),
/// (3) times a profiler-off run.  Both runs start from an all-off
/// obs::Config.
inline ProfileOverheadReport measure_profile_overhead(
    const harness::RunSpec& spec, int ranks) {
  ProfileOverheadReport r;

  {
    // The disabled path in ThreadCtx/BlockCtx::global is exactly
    // `if (ProfSlot* p = buf.prof_slot_)` on a cached pointer member.  As
    // with the KernelCheck probe above, the branch is timed differentially
    // inside a modeled bind (pointer loads + a small struct return) and the
    // minimum over repetitions rejects additive noise.
    constexpr int kIters = 1 << 21;
    constexpr int kReps = 5;
    obs::ProfSlot* volatile slot = nullptr;
    std::vector<double> data(4096, 1.0);
    std::uint64_t binds = 0;
    double acc = 0.0;
    const auto bind_loop = [&](bool with_hook) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) & 4095u;
        if (idx >= data.size()) std::abort();
        ++binds;
        if (with_hook) {
          obs::ProfSlot* p = slot;
          if (p != nullptr) ++p->binds;
        }
        acc += data[idx];
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             kIters;
    };
    bind_loop(false);  // warm-up
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double diff = bind_loop(true) - bind_loop(false);
      if (rep == 0 || diff < best) best = diff;
    }
    if (acc < 0.0 || binds == 0) std::abort();
    r.ns_per_site = best > 0.0 ? best : 0.0;
  }

  harness::RunSpec on = all_off(spec);
  on.obs.profile = true;
  r.sites_per_step =
      static_cast<double>(harness::run_gpu(on, ranks).prof_binds) /
      static_cast<double>(spec.params.num_steps);
  r.step_ns = off_step_ns(spec, ranks);
  return r;
}

/// Measured cost of MemScope when it is *disabled*.  The contract
/// (src/obs/memscope.hpp) is one null-pointer or relaxed-atomic-flag branch
/// per allocation event and per phase boundary — never on the per-access
/// path; the gate is that branch's cost times the sites one step hits, as a
/// fraction of real step time.
struct MemScopeOverheadReport {
  double ns_per_site = 0.0;     ///< measured cost of one disabled flag branch
  double sites_per_step = 0.0;  ///< phase boundaries + alloc events per step
  double step_ns = 0.0;         ///< wall time of one step, memscope off
  double overhead() const {
    return step_ns > 0.0 ? ns_per_site * sites_per_step / step_ns : 0.0;
  }
};

/// Measures the disabled-MemScope overhead of `spec` on the GPU backend:
/// (1) times the relaxed memscope_on() flag load + branch differentially
/// inside a modeled phase boundary, (2) counts the sites one step hits by
/// running once with MemScope on (RSS-sampler phase-boundary calls plus
/// registry alloc/free events), (3) times a memscope-off run.  Both runs
/// start from an all-off obs::Config.
inline MemScopeOverheadReport measure_memscope_overhead(
    const harness::RunSpec& spec, int ranks) {
  MemScopeOverheadReport r;

  {
    // The disabled path at a phase boundary is exactly `if (mem_)` on a
    // bool cached from one relaxed atomic load per step
    // (obs::PhaseClock::begin_step / phase_end); at an allocation event it
    // is `if (mem_)` on a null unique_ptr.  Both are timed differentially
    // inside a modeled phase-boundary sequence, with the minimum over
    // repetitions rejecting additive noise, as for the checker/profiler
    // probes above.
    constexpr int kIters = 1 << 21;
    constexpr int kReps = 5;
    std::vector<double> data(4096, 1.0);
    std::uint64_t marks = 0;
    std::uint64_t hits = 0;
    double acc = 0.0;
    const auto boundary_loop = [&](bool with_hook) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) & 4095u;
        if (idx >= data.size()) std::abort();
        ++marks;
        if (with_hook) {
          // The flag is false for the whole probe (no MemScopeRun
          // active), so this is the not-taken branch the contract prices.
          if (obs::memscope_on()) ++hits;
        }
        acc += data[idx];
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             kIters;
    };
    boundary_loop(false);  // warm-up
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double diff = boundary_loop(true) - boundary_loop(false);
      if (rep == 0 || diff < best) best = diff;
    }
    if (acc < 0.0 || marks == 0 || hits != 0) std::abort();
    r.ns_per_site = best > 0.0 ? best : 0.0;
  }

  {
    harness::RunSpec on = all_off(spec);
    on.obs.memscope = true;
    obs::rss_sampler().reset();
    const harness::BackendResult scoped = harness::run_gpu(on, ranks);
    // Every disabled-branch site fires exactly once in an enabled run:
    // phase boundaries show up as RSS-sampler calls, allocation events as
    // registry alloc/free counts.
    const double sites =
        static_cast<double>(obs::rss_sampler().calls()) +
        static_cast<double>(scoped.memory.alloc_events +
                            scoped.memory.free_events);
    obs::rss_sampler().reset();
    r.sites_per_step = sites / static_cast<double>(spec.params.num_steps);
  }
  r.step_ns = off_step_ns(spec, ranks);
  return r;
}

/// Measured cost of CritPath when it is *disabled*.  The contract
/// (src/obs/critpath.hpp) is one null-pointer branch per phase boundary and
/// per step — the gather itself runs only when critpath is on; the gate is
/// that branch's cost times the sites one step hits, as a fraction of real
/// step time.
struct CritPathOverheadReport {
  double ns_per_site = 0.0;     ///< measured cost of one disabled null branch
  double sites_per_step = 0.0;  ///< phase boundaries + step hooks per step
  double step_ns = 0.0;         ///< wall time of one step, critpath off
  double overhead() const {
    return step_ns > 0.0 ? ns_per_site * sites_per_step / step_ns : 0.0;
  }
};

/// Measures the disabled-CritPath overhead of `spec` on the GPU backend:
/// (1) times the null-collector branch differentially inside a modeled
/// phase-boundary sequence, (2) counts the sites one step hits from an
/// enabled run's accumulator (per rank: one PhaseClock branch per phase,
/// one begin_step branch, one backend per-step hook), (3) times a
/// critpath-off run.  Both runs start from an all-off obs::Config.
inline CritPathOverheadReport measure_critpath_overhead(
    const harness::RunSpec& spec, int ranks) {
  CritPathOverheadReport r;

  {
    // The disabled path in PhaseClock::begin_step/phase_end (and the
    // backends' per-step hook) is exactly `if (crit_)` on a pointer member
    // that stays null.  As with the checker/profiler/memscope probes above,
    // the branch is timed differentially inside a modeled phase boundary
    // and the minimum over repetitions rejects additive noise.
    constexpr int kIters = 1 << 21;
    constexpr int kReps = 5;
    obs::CritPathCollector* volatile crit = nullptr;
    std::vector<double> data(4096, 1.0);
    std::uint64_t marks = 0;
    double acc = 0.0;
    const auto boundary_loop = [&](bool with_hook) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) & 4095u;
        if (idx >= data.size()) std::abort();
        ++marks;
        if (with_hook) {
          obs::CritPathCollector* c = crit;
          if (c != nullptr) c->add(0, 1.0);
        }
        acc += data[idx];
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             kIters;
    };
    boundary_loop(false);  // warm-up
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double diff = boundary_loop(true) - boundary_loop(false);
      if (rep == 0 || diff < best) best = diff;
    }
    if (acc < 0.0 || marks == 0) std::abort();
    r.ns_per_site = best > 0.0 ? best : 0.0;
  }

  harness::RunSpec on = all_off(spec);
  on.obs.critpath = true;
  const obs::CritPathAccum analyzed = harness::run_gpu(on, ranks).critpath;
  // Each rank pays one disabled branch per phase boundary plus one each for
  // begin_step and the backend's per-step hook; the enabled run's
  // accumulator knows the real rank/phase counts.
  r.sites_per_step = static_cast<double>(analyzed.num_ranks()) *
                     static_cast<double>(analyzed.num_phases() + 2);
  r.step_ns = off_step_ns(spec, ranks);
  return r;
}

}  // namespace simcov::bench
