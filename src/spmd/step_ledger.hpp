#pragma once
// The per-rank step ledger: every piece of per-step bookkeeping the
// bulk-synchronous loop needs, kept once for both backends.
//
// run_spmd (spmd/run.hpp) creates one ledger per rank, hands it to the
// backend's rank simulation, and drives it around each step:
//
//   begin_step()                         -- driver
//     phase_end(phase, sample) ...       -- backend step(), once per phase
//   end_step(stats)                      -- driver
//   close_tail()                         -- driver, after the last step
//
// The backend's step() only marks phase ends, passing the part of the
// perfmodel::WorkSample it knows (device deltas and mem penalty on the GPU,
// voxel updates and list ops on the CPU); the ledger adds the rank's comm
// delta, prices the sample into the cost log and closes the phase on the
// PhaseClock — the one producer of measured per-phase time for the trace,
// the metrics counters, CritPath and the drift rows.  At the end of each
// step it runs the CritPath gather (when on), emits the pgas.barrier_wait_ns
// series (when metrics are on), closes the step in the cost log and
// appends the step's reduced statistics to the history.
//
// Untimed tail: host work of the step loop outside the step spans (the
// backends' and the ledger's per-step series, the critpath gather and
// analysis, cost-log and history bookkeeping, recorded digests) is summed
// per rank.  The gather's barrier wait is included,
// so the run folds tails with MIN over ranks — the last-arriving rank waits
// ~nothing and its tail is the intrinsic cost.

#include <cstdint>
#include <span>
#include <vector>

#include "core/stats.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_clock.hpp"
#include "obs/trace.hpp"
#include "pgas/comm_stats.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/cost_model.hpp"

namespace simcov::spmd {

class StepLedger {
 public:
  StepLedger(pgas::Rank& rank, const perfmodel::CostModel& model,
             bool critpath)
      : rank_(rank), model_(&model), cost_log_(model), clock_(rank.id()),
        critpath_(critpath) {
    if (critpath_) clock_.set_critpath(&collect_);
  }

  // Non-copyable: the PhaseClock holds a pointer to the collector.
  StepLedger(const StepLedger&) = delete;
  StepLedger& operator=(const StepLedger&) = delete;

  /// The cost model the ledger prices samples with (the GPU backend prices
  /// its KernelProf records with the same one).
  const perfmodel::CostModel& model() const { return *model_; }

  /// Opens a step: ends the previous step's tail, snapshots the comm
  /// counters and starts the phase clock.
  void begin_step() {
    close_tail();
    clock_.begin_step();
    step_comm_snapshot_ = comm_snapshot_ = rank_.stats();
  }

  /// Closes `phase`: `sample` carries the backend's work since the previous
  /// mark; the ledger fills in the comm delta.  A phase may be marked more
  /// than once per step (its samples add up).
  void phase_end(perfmodel::Phase phase, perfmodel::WorkSample sample) {
    sample.comm = rank_.stats().since(comm_snapshot_);
    cost_log_.add(phase, sample);
    comm_snapshot_ = rank_.stats();
    // The modeled phases double as the measured trace spans, so the
    // Perfetto track and the cost model speak the same phase vocabulary
    // (and the critpath collector indexes by the same enum).
    clock_.phase_end(perfmodel::phase_name(phase), static_cast<int>(phase));
  }

  /// Comm counters accumulated since begin_step, for the backends' own
  /// per-step series.
  pgas::CommStats step_comm() const {
    return rank_.stats().since(step_comm_snapshot_);
  }

  /// Closes the step and records its reduced statistics.
  void end_step(const StepStats& stats) {
    // The tail starts where the step's last phase ended, so host work the
    // backend's step() does after its last mark counts as tail too.
    const obs::Nanos step_end = clock_.end_step();
    tail_mark_ = step_end != 0 ? step_end : obs::now_ns();
    if (critpath_) gather_critpath();
    if (obs::metrics().enabled()) {
      obs::metrics().step_value(
          "pgas.barrier_wait_ns", rank_.id(), step(),
          static_cast<double>(step_comm().barrier_wait_ns));
    }
    cost_log_.end_step();
    history_.push_back(stats);
  }

  /// Closes an open tail interval; the driver calls this once more after
  /// the last step, before the closing barrier.
  void close_tail() {
    if (tail_mark_ == 0) return;
    tail_ns_ += static_cast<std::uint64_t>(obs::now_ns() - tail_mark_);
    tail_mark_ = 0;
  }

  const TimeSeries& history() const { return history_; }
  const perfmodel::RankCostLog& cost_log() const { return cost_log_; }
  /// CritPath accumulator (steps() == 0 when critpath is off).
  const obs::CritPathAccum& critpath() const { return accum_; }
  /// Step-loop host work outside the phase spans, ns.
  std::uint64_t tail_ns() const { return tail_ns_; }

 private:
  /// Index of the current step (0-based; the count of closed steps).
  std::uint64_t step() const { return history_.size(); }

  /// End-of-step critical-path gather and analysis (obs/critpath.hpp): all
  /// ranks exchange their phase deltas plus barrier-wait delta through the
  /// observability-only collective path and run the identical deterministic
  /// analysis, so each rank knows locally whether it bound this step.
  void gather_critpath() {
    constexpr int kP = perfmodel::kNumPhases;
    constexpr int kStride = obs::crit_payload_doubles(kP);
    const int world = rank_.world_size();
    double payload[kStride];
    for (int p = 0; p < kP; ++p) payload[p] = collect_.phase_ns(p);
    const std::uint64_t wait = rank_.stats().barrier_wait_ns;
    payload[kP] = static_cast<double>(wait - wait_snapshot_);
    wait_snapshot_ = wait;
    gather_.resize(static_cast<std::size_t>(world) * kStride);
    rank_.obs_allgather(std::span<const double>(payload, kStride), gather_);
    const obs::CritPathAccum::StepInfo info = accum_.step(gather_, world, kP);
    if (info.binding_rank == rank_.id() && obs::tracer().enabled()) {
      // Flag the binding rank's step on its own track so Perfetto shows
      // the chain of critical spans across ranks.
      obs::TraceEvent ev{"critical_path", rank_.id(), clock_.step_start(),
                         clock_.step_end()};
      ev.add_arg("step", static_cast<double>(step()));
      ev.add_arg("work_ns", info.work_ns);
      ev.add_arg("wait_ns", info.wait_ns);
      obs::tracer().record(ev);
    }
    if (rank_.id() == 0 && obs::metrics().enabled()) {
      obs::metrics().step_value("critpath.binding_rank", 0, step(),
                                static_cast<double>(info.binding_rank));
      obs::metrics().step_value("critpath.critical_ns", 0, step(),
                                info.critical_ns);
    }
  }

  pgas::Rank& rank_;
  const perfmodel::CostModel* model_;
  perfmodel::RankCostLog cost_log_;
  obs::PhaseClock clock_;
  bool critpath_;
  obs::CritPathCollector collect_;
  obs::CritPathAccum accum_;
  std::vector<double> gather_;
  std::uint64_t wait_snapshot_ = 0;
  obs::Nanos tail_mark_ = 0;
  std::uint64_t tail_ns_ = 0;
  TimeSeries history_;
  pgas::CommStats comm_snapshot_;
  pgas::CommStats step_comm_snapshot_;
};

}  // namespace simcov::spmd
