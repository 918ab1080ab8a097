#pragma once
// The one run path of both parallel backends.
//
// SIMCoV-CPU and SIMCoV-GPU compute one bit-identical simulation behind the
// same bulk-synchronous program, so one driver runs both:
//
//   RunOptions --> run_spmd --(each rank)--> StepLedger + RankSim
//                                            step loop: ledger.begin_step,
//                                              sim.step (marks phases),
//                                              ledger.end_step(stats)
//                                            sim.report() = RankReport
//                           --(after the join)--> merge --> RunResult
//
// Per rank, run_spmd creates the rank's StepLedger (spmd/step_ledger.hpp:
// cost log, PhaseClock, CritPath, tail, history), builds the backend's rank
// simulation around it, checks that all ranks hold the same parameter set
// (a broadcast digest), initializes, runs the timed step loop (optionally
// recording the full-state digest after each step), and harvests one
// RankReport.  Rank 0 folds the cost logs while every ledger is still
// alive; after the join the reports merge into one RunResult.  A rank that
// throws (a KernelCheck finding, say) aborts the team: pgas::Runtime::run()
// throws its error, naming the rank, and run_spmd returns nothing.
//
// A backend supplies its rank simulation through `make_rank(rank, dec,
// ledger)`, which returns it by value (guaranteed elision: the type need
// not be movable).  The simulation provides:
//
//   void initialize();
//   StepStats step();               // marks each phase on the ledger
//   std::uint64_t local_digest();   // owned-voxel digest, when recorded
//   RankReport report();
//
// The barrier and collective sequence is fixed here, so the communication
// counters and modeled seconds of both backends depend only on their steps.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/rules.hpp"
#include "core/stats.hpp"
#include "gpusim/device.hpp"
#include "obs/config.hpp"
#include "obs/critpath.hpp"
#include "obs/memscope.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pgas/comm_stats.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/machine.hpp"
#include "spmd/step_ledger.hpp"
#include "util/error.hpp"

namespace simcov::spmd {

/// What a run is set up with on either backend, whoever sets the team
/// size: both RunOptions and harness::RunSpec derive from it, so the
/// harness hands it to a backend in one assignment.
struct RunSetup {
  /// Sub-domain shape (paper Fig. 1B: block vs linear decomposition trades
  /// off boundary length, i.e. halo traffic).
  Decomposition::Kind decomp = Decomposition::Kind::kBlock2D;
  /// Modeled-time extrapolation to paper-scale grids (see CostModel).
  double area_scale = 1.0;
  /// Instruments and checkers (obs/config.hpp); defaults to the parsed
  /// environment.  None of them changes digests or modeled seconds.
  obs::Config obs = obs::Config::from_env();
};

/// What both backends take: the setup plus the team shape.
struct RunOptions : RunSetup {
  int num_ranks = 4;
  bool record_digests = false;  ///< per-step full-state digests (tests)
};

/// What one rank hands back after its step loop.  Additive fields are zero
/// or empty when their instrument is off (and on the CPU backend, which
/// has no device).
struct RankReport {
  gpusim::DeviceStats device;
  std::uint64_t check_accesses = 0;
  std::uint64_t check_violations = 0;
  std::vector<obs::KernelStats> kernel_profile;
  std::uint64_t prof_binds = 0;
  /// The simulation's own MemScope registries (the device's, on the GPU);
  /// run_spmd merges in the PGAS rank's registry.
  obs::MemReport memory;
  /// The memory model's prediction for this rank's sub-domain, by category
  /// (empty when memory accounting is off).
  std::map<std::string, double> mem_modeled_by_category;
};

/// The result of one parallel run, on either backend.
struct RunResult {
  TimeSeries history;                  ///< reduced stats per step
  std::vector<std::uint64_t> digests;  ///< per step, if recorded
  perfmodel::RunCost cost;             ///< modeled bulk-synchronous time
  gpusim::DeviceStats device_total;    ///< summed over devices (GPU only)
  /// Full per-rank communication counters (including the per-destination
  /// comm matrix in CommStats::peers), indexed by rank id.
  std::vector<pgas::CommStats> comm_by_rank;
  /// KernelCheck totals over all ranks (zero when checking is off).
  std::uint64_t check_accesses = 0;
  std::uint64_t check_violations = 0;
  /// KernelProf per-(phase,kernel) aggregates summed over ranks (empty when
  /// profiling is off).  Wall ns are summed rank-time, like the PhaseClock
  /// counters the drift rows are built from.
  std::vector<obs::KernelStats> kernel_profile;
  /// GlobalSpan binds routed through profiler slots, summed over ranks —
  /// the site count for the profiler-off overhead gate in bench/obs_overhead.
  std::uint64_t prof_binds = 0;
  /// MemScope per-buffer report merged over all ranks (empty when memory
  /// accounting is off).  Per-rank peaks *sum*: every rank's buffers are
  /// simultaneously live, so the sum is the process footprint.
  obs::MemReport memory;
  /// Memory-model prediction summed over ranks, keyed like
  /// memory.categories() — the modeled side of the memory drift rows.
  std::map<std::string, double> mem_modeled_by_category;
  /// CritPath accumulator (rank 0's copy; the analysis is deterministic and
  /// identical on every rank).  steps() == 0 when critpath is off.
  obs::CritPathAccum critpath;
  /// Host wall time of the step loop alone (post-init barrier to post-loop
  /// barrier), seconds — the reconciliation target for the critical path.
  double step_loop_wall_s = 0.0;
  /// Step-loop host work outside the phase spans, min-folded over ranks so
  /// the critpath gather's barrier wait is not charged, seconds.
  /// Reconciliation: critical path + tail ~= step_loop_wall_s.
  double step_tail_s = 0.0;

  /// Sum of comm_by_rank (all ranks' counters + merged comm matrix).
  pgas::CommStats comm_total() const {
    pgas::CommStats total;
    for (const auto& s : comm_by_rank) total += s;
    return total;
  }

  /// Adds one rank's report (call in rank order: floating sums are
  /// order-sensitive).
  void merge(const RankReport& r) {
    device_total += r.device;
    check_accesses += r.check_accesses;
    check_violations += r.check_violations;
    for (const obs::KernelStats& k : r.kernel_profile) {
      obs::merge_kernel_stats(kernel_profile, k);
    }
    prof_binds += r.prof_binds;
    obs::merge_mem_reports(memory, r.memory);
    for (const auto& [cat, bytes] : r.mem_modeled_by_category) {
      mem_modeled_by_category[cat] += bytes;
    }
  }
};

/// The end of both backends' reduce_stats phase: sums the rank's partial
/// `stats` over the team with one allreduce_sum, then advances the
/// vascular pool, which every rank computes alike from the reduced
/// extravasation count, and records it in `stats`.
inline void reduce_step_stats(pgas::Rank& rank, StepStats& stats,
                              double& pool, std::uint64_t step,
                              const SimParams& params) {
  const auto flat = stats.flatten();
  const auto reduced =
      rank.allreduce_sum(std::span<const double>(flat.data(), flat.size()));
  std::array<double, StepStats::kFlatSize> arr{};
  std::copy(reduced.begin(), reduced.end(), arr.begin());
  stats = StepStats::unflatten(arr);
  pool = rules::pool_after_step(pool, step, params, stats.extravasated);
  stats.tcells_vascular = pool;
}

/// Runs `params` SPMD over options.num_ranks ranks; see the file comment.
template <typename MakeRank>
RunResult run_spmd(const SimParams& params, const RunOptions& options,
                   perfmodel::Backend backend, MakeRank&& make_rank) {
  params.validate();
  SIMCOV_REQUIRE(options.num_ranks >= 1, "need at least one rank");
  const Grid grid(params.dim_x, params.dim_y, params.dim_z);
  const Decomposition dec(grid, options.num_ranks, options.decomp);
  const perfmodel::CostModel model(perfmodel::MachineSpec::perlmutter_like(),
                                   backend, options.num_ranks,
                                   options.area_scale);

  // Raise the process-wide MemScope flag before any Rank exists: pgas::Rank
  // creates its registry at construction and the RSS sampler keys off it.
  obs::MemScopeRun memscope_run(options.obs.memscope);

  pgas::Runtime rt(options.num_ranks, options.obs);
  RunResult result;
  const auto n = static_cast<std::size_t>(options.num_ranks);
  std::vector<RankReport> reports(n);
  std::vector<const perfmodel::RankCostLog*> logs(n);
  std::vector<std::uint64_t> tails(n);

  rt.run([&](pgas::Rank& rank) {
    const auto me = static_cast<std::size_t>(rank.id());
    StepLedger ledger(rank, model, options.obs.critpath);
    auto sim = make_rank(rank, dec, ledger);
    // SPMD sanity: rank 0 broadcasts a digest of its parameter set and every
    // rank checks its own copy against it.  Setup traffic happens before the
    // first step's counter snapshot, so this stays outside the modeled
    // per-phase costs.
    const std::uint64_t pdigest = std::hash<std::string>{}(params.summary());
    SIMCOV_REQUIRE(rank.broadcast_value<std::uint64_t>(0, pdigest) == pdigest,
                   "ranks disagree on the simulation parameter set");
    rank.barrier();
    sim.initialize();
    rank.barrier();

    // Step-loop wall: barrier-to-barrier, so every rank measures the same
    // interval — the reconciliation target for the critical path.
    const obs::Nanos loop_t0 = obs::now_ns();
    std::vector<std::uint64_t> digests;
    for (std::int64_t s = 0; s < params.num_steps; ++s) {
      ledger.begin_step();
      ledger.end_step(sim.step());
      if (options.record_digests) {
        digests.push_back(rank.allreduce_xor(sim.local_digest()));
      }
    }
    ledger.close_tail();  // final step's tail, before the barrier wait
    rank.barrier();
    if (rank.id() == 0) {
      result.step_loop_wall_s =
          static_cast<double>(obs::now_ns() - loop_t0) / 1e9;
      result.history = ledger.history();
      result.digests = std::move(digests);
      // Every rank's accumulator is identical (deterministic analysis of
      // the same gathered payloads); harvest rank 0's.
      result.critpath = ledger.critpath();
    }
    RankReport rep = sim.report();
    if (obs::MemScope* pm = rank.memscope()) {
      // The PGAS rank's host-side slots (channel landing zones, the CPU
      // backend's grids), plus the RPC queue's high-water mark charged as
      // a gauge — the queue is mutated by sender threads, so it is counted
      // at harvest rather than per enqueue.
      pm->gauge_peak("pgas.rpc_queue",
                     rank.rpc_queue_peak() * sizeof(std::function<void()>));
      obs::merge_mem_reports(rep.memory, pm->report());
    }
    reports[me] = std::move(rep);
    logs[me] = &ledger.cost_log();
    tails[me] = ledger.tail_ns();
    rank.barrier();
    if (rank.id() == 0) {
      result.cost =
          perfmodel::fold(std::span<const perfmodel::RankCostLog* const>(logs));
    }
    rank.barrier();  // keep all ledgers alive until the fold completes
  });

  for (const RankReport& rep : reports) result.merge(rep);
  result.step_tail_s =
      static_cast<double>(*std::min_element(tails.begin(), tails.end())) / 1e9;
  for (int r = 0; r < options.num_ranks; ++r) {
    result.comm_by_rank.push_back(rt.rank_stats(r));
  }
  return result;
}

}  // namespace simcov::spmd
