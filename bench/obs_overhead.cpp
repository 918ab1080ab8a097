// Overhead gate for the disabled instruments: the tracer and metrics
// registry (src/obs/trace.hpp, metrics.hpp), the KernelCheck analyzer
// (src/gpusim/check.hpp), the KernelProf profiler (src/obs/profile.hpp),
// MemScope (src/obs/memscope.hpp) and CritPath (src/obs/critpath.hpp).
//
// Not a paper figure: an engineering check that the always-compiled
// instruments stay effectively free when disabled.  Each row prices one
// instrument's disabled path: the measured cost of one disabled site (one
// relaxed atomic load + branch for obs; one pointer or flag branch for the
// others) times the number of sites a real step hits, as a fraction of the
// step wall time of one all-instruments-off run.  Every row must stay under
// 2%.  If a row starts MISSing, either a site gained work on the disabled
// path or sites multiplied faster than step cost.  The binary writes its
// report either way and exits 1 when any row MISSes, so running it is the
// gate.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace simcov;
using namespace simcov::bench;

/// One instrument's disabled path: `name` opens its shape-check claim and
/// `prefix` its metric names.
struct Row {
  std::string name;
  std::string prefix;
  double ns_per_site = 0.0;
  double sites_per_step = 0.0;
};

constexpr int kIters = 1 << 21;

double ns_per_iter(std::chrono::steady_clock::time_point t0, int iters) {
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

/// Cost of one call of `hook(base, idx)` on its disabled path, timed
/// differentially inside a modeled accessor (bounds check + stats bump + the
/// data access), because that is where the branch actually executes:
/// out-of-order cores overlap a predicted-not-taken branch with the
/// surrounding work, so timing it in an empty loop would overstate the cost
/// ~10x.  The minimum over repetitions rejects timer and scheduler noise
/// (noise is strictly additive here).  Co-runners on a shared host slow the
/// loops in bursts of a few milliseconds, so the kIters x 5 iterations per
/// loop are spread over 40 short repetitions: a burst spoils some of them,
/// not all.  Out of line, one instantiation per probe, so each probe's loops
/// are laid out on their own.
template <typename Hook>
[[gnu::noinline]] double differential_ns(Hook hook) {
  constexpr int kReps = 40;
  constexpr int kRepIters = kIters * 5 / kReps;
  std::vector<double> data(4096, 1.0);
  std::uint64_t reads = 0;
  double acc = 0.0;
  const auto loop = [&](bool with_hook) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRepIters; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i) & 4095u;
      if (idx >= data.size()) std::abort();
      ++reads;
      if (with_hook) hook(data.data(), idx);
      acc += data[idx];
    }
    return ns_per_iter(t0, kRepIters);
  };
  loop(false);  // warm-up
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double diff = loop(true) - loop(false);
    if (rep == 0 || diff < best) best = diff;
  }
  // `acc`/`reads` keep the loops alive; fold them into the (never-taken)
  // error path so the compiler cannot drop them.
  if (acc < 0.0 || reads == 0) std::abort();
  return best > 0.0 ? best : 0.0;
}

}  // namespace

int main() {
  Reporter rep("obs_overhead", "Observability overhead (collectors disabled)",
               "n/a (engineering gate, not a paper figure)",
               "gpu engine, 4 ranks, 96x96, 30 steps");

  constexpr int kRanks = 4;
  harness::RunSpec off;
  off.params = bench_params(96, 96, 30, 2);
  off.obs = obs::Config{};  // every instrument off, whatever the env says
  const auto steps = static_cast<double>(off.params.num_steps);
  // A GPU run of `off` with the one instrument `on` switched on.
  const auto run_with = [&](bool obs::Config::*on) {
    harness::RunSpec spec = off;
    spec.obs.*on = true;
    return harness::run_gpu(spec, kRanks);
  };
  std::vector<Row> rows;

  {
    // Tracer + metrics: the contract is one relaxed atomic load + branch
    // per span/metric site.  The relaxed enabled() load in the ScopedSpan
    // constructor cannot be hoisted or deleted, so the loop body survives
    // optimization.  Sites: one run with both collectors on (in memory, no
    // output files) counts every span and datapoint a step produces.
    obs::tracer().disable();
    obs::metrics().disable();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      obs::ScopedSpan probe("obs_overhead_probe", 0);
    }
    const double ns = ns_per_iter(t0, kIters);
    obs::tracer().enable("");
    obs::metrics().enable("");
    harness::run_gpu(off, kRanks);
    const auto sites = static_cast<double>(obs::tracer().event_count() +
                                           obs::tracer().dropped() +
                                           obs::metrics().datapoint_count());
    obs::tracer().disable();
    obs::metrics().disable();
    rows.push_back({"disabled-observability", "", ns, sites / steps});
  }
  {
    // KernelCheck: `if (chk_)` on a pointer member in every GlobalSpan and
    // shared-memory access.  Sites: the accesses a checked run validates.
    gpusim::KernelChecker* volatile chk = nullptr;
    const double ns = differential_ns([&](const double* base, std::size_t i) {
      gpusim::KernelChecker* c = chk;
      if (c != nullptr) {
        c->on_global_access(base, i, gpusim::KernelChecker::Access::kRead);
      }
    });
    const auto sites = static_cast<double>(
        run_with(&obs::Config::kernel_check).check_accesses);
    rows.push_back(
        {"disabled-site kernel-check", "kernel_check_", ns, sites / steps});
  }
  {
    // KernelProf: `if (ProfSlot* p = buf.prof_slot_)` once per GlobalSpan
    // *bind* (Device::bind), not per access.  The kernels bind their
    // buffers as launch arguments, so a bind is one buffer argument of one
    // launch, not one per thread.  Sites: the binds a profiled run routes
    // through profiler slots.
    obs::ProfSlot* volatile slot = nullptr;
    const double ns = differential_ns([&](const double*, std::size_t) {
      obs::ProfSlot* p = slot;
      if (p != nullptr) ++p->binds;
    });
    const auto sites =
        static_cast<double>(run_with(&obs::Config::profile).prof_binds);
    rows.push_back({"disabled-profiler bind", "profile_", ns, sites / steps});
  }
  {
    // MemScope: a bool cached from one relaxed memscope_on() load per step
    // at each phase boundary, a null unique_ptr at each allocation event —
    // never on the per-access path.  The flag is false for the whole probe
    // (no MemScopeRun active), so this is the not-taken branch the contract
    // prices.  Sites: every disabled-branch site fires exactly once in an
    // enabled run — phase boundaries as RSS-sampler calls, allocation
    // events as registry alloc/free counts.
    std::uint64_t hits = 0;
    const double ns = differential_ns([&](const double*, std::size_t) {
      if (obs::memscope_on()) ++hits;
    });
    if (hits != 0) std::abort();
    obs::rss_sampler().reset();
    const obs::MemReport mem = run_with(&obs::Config::memscope).memory;
    const auto sites = static_cast<double>(
        obs::rss_sampler().calls() + mem.alloc_events + mem.free_events);
    obs::rss_sampler().reset();
    rows.push_back({"disabled-memscope", "memscope_", ns, sites / steps});
  }
  {
    // CritPath: `if (crit_)` on a null collector pointer in
    // PhaseClock::begin_step/phase_end and the step ledger's end of step;
    // the gather itself only runs when critpath is on.  Sites per rank: one
    // per phase boundary plus begin_step and the end-of-step hook; the
    // enabled run's accumulator knows the real rank/phase counts.
    obs::CritPathCollector* volatile crit = nullptr;
    const double ns = differential_ns([&](const double*, std::size_t) {
      obs::CritPathCollector* c = crit;
      if (c != nullptr) c->add(0, 1.0);
    });
    const obs::CritPathAccum analyzed =
        run_with(&obs::Config::critpath).critpath;
    const double sites_per_step =
        static_cast<double>(analyzed.num_ranks()) *
        static_cast<double>(analyzed.num_phases() + 2);
    rows.push_back({"disabled-critpath", "critpath_", ns, sites_per_step});
  }

  // One all-off run prices every row: the driver's own barrier-to-barrier
  // step-loop wall, without construction, init or teardown.
  const double step_ns =
      harness::run_gpu(off, kRanks).step_loop_wall_s * 1e9 / steps;
  std::printf("step wall time, all instruments off: %.3f ms\n",
              step_ns / 1e6);
  rep.metric("step_ns", step_ns);

  TextTable t({"disabled path", "ns per site", "sites per step", "overhead"});
  bool all_hold = true;
  for (const Row& r : rows) {
    const double overhead =
        step_ns > 0.0 ? r.ns_per_site * r.sites_per_step / step_ns : 0.0;
    t.add_row({r.name, fmt(r.ns_per_site, 3), fmt(r.sites_per_step, 1),
               fmt(overhead * 100.0, 4) + "%"});
    const bool holds = overhead <= 0.02;
    all_hold = all_hold && holds;
    rep.shape_check(r.name + " overhead <= 2% of step time", holds);
    rep.metric(r.prefix + "ns_per_site", r.ns_per_site);
    rep.metric(r.prefix + "sites_per_step", r.sites_per_step);
    rep.metric(r.prefix + "disabled_overhead", overhead);
  }
  std::printf("%s", t.to_string().c_str());

  // One instrumented run of the same spec so this report also carries
  // measured/modeled drift, the comm matrix, the per-kernel roofline rows,
  // the per-buffer memory section, and the criticalpath section.
  harness::RunSpec spec;
  spec.params = off.params;
  spec.area_scale = kGpuAreaScale;
  rep.run_gpu("instrumented gpu 4 ranks 96^2 x30", spec, kRanks);
  rep.finish();
  return all_hold ? 0 : 1;
}
