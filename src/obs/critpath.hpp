#pragma once
// CritPath: per-step distributed critical-path analysis.
//
// The drift table says how far each phase is from its model in *aggregate*;
// it cannot say which rank+phase actually bound a given bulk-synchronous
// step, or how much end-to-end time fixing a phase would buy.  CritPath
// closes that gap.  Each rank's PhaseClock feeds a CritPathCollector with
// the step's per-phase wall deltas; at the end of the step every rank
// gathers all ranks' vectors (plus each rank's barrier-wait delta) through
// pgas::Rank::obs_allgather and runs the same deterministic analysis:
//
//   * The step's *work* per rank is its contiguous phase total minus the
//     barrier wait the runtime measured inside those phases.  The rank with
//     the most work is the step's binding rank — everyone else spent the
//     difference waiting for it.
//   * The critical path of the run is the concatenation of the binding
//     rank's phase vectors; per-phase critical shares sum to 1 by
//     construction and the critical total reconciles with the measured step
//     wall (all ranks leave the final barrier together).
//   * Non-critical ranks' wait time is attributed back to the binding
//     rank's phases pro rata — "this wait exists because rank b's
//     concentrations ran long" — which is the prioritization signal.
//   * Straggler churn (how often the binding rank changes step-to-step) and
//     the paper's max/mean imbalance factor fall out of the same gather;
//     churn is the signal ROADMAP item 4 (tile stealing) gates on.
//
// On top of the accumulated path, build_critpath_report ranks what-if
// projections — "if phase P ran at modeled speed, end-to-end improves X%" —
// as Amdahl over the *critical path*, not the aggregate.
//
// Overhead contract: when critpath is off, PhaseClock pays one null-pointer
// branch per phase boundary and per step (asserted by bench/obs_overhead).
// When on, the per-step gather uses raw barriers that bump no CommStats
// counters and are invisible to the discipline checker, and it never touches
// simulation state — so comm counters, modeled costs and simulation digests
// are bit-identical with critpath on or off.
//
// Layering: this header is self-contained (no perfmodel dependency) so
// PhaseClock and both backends can own collectors; phases are plain ints
// (the backends pass perfmodel::Phase values).  The report/what-if side
// lives in critpath.cpp inside simcov_benchreport, mirroring memscope.

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace simcov::obs {

/// Upper bound on distinct phases a collector can hold.  perfmodel has 6;
/// the slack keeps this header decoupled from the enum without reallocating.
inline constexpr int kCritMaxPhases = 8;

/// Per-rank, per-step phase-delta sink, fed by PhaseClock::phase_end when a
/// collector is attached (see PhaseClock::set_critpath).  Owned by the
/// backend rank object; touched only by its owning rank thread.
class CritPathCollector {
 public:
  void begin_step() {
    for (double& v : phase_ns_) v = 0.0;
  }

  void add(int phase, double ns) {
    ++calls_;
    if (phase < 0 || phase >= kCritMaxPhases) return;
    phase_ns_[phase] += ns;
  }

  double phase_ns(int phase) const { return phase_ns_[phase]; }

  double total_ns() const {
    double t = 0.0;
    for (double v : phase_ns_) t += v;
    return t;
  }

  /// Number of add() calls over the collector's lifetime (overhead-bench
  /// site accounting).
  std::uint64_t calls() const { return calls_; }

 private:
  double phase_ns_[kCritMaxPhases] = {};
  std::uint64_t calls_ = 0;
};

/// Fixed layout of the per-rank gather payload: num_phases phase deltas
/// followed by the rank's barrier-wait delta for the step, all in ns.
inline constexpr int crit_payload_doubles(int num_phases) {
  return num_phases + 1;
}

/// Cross-step accumulation of the per-step analysis.  Every rank runs an
/// identical copy on the identical gathered payload (the analysis is
/// deterministic), so each rank knows locally whether it is the step's
/// binding rank; rank 0's accumulator is harvested into the run result.
class CritPathAccum {
 public:
  /// One step's analysis result (what the caller needs for trace/metrics).
  struct StepInfo {
    int binding_rank = 0;
    double critical_ns = 0.0;  ///< binding rank's contiguous phase total
    double work_ns = 0.0;      ///< binding rank's total minus its wait
    double wait_ns = 0.0;      ///< all ranks' barrier wait this step
  };

  /// Processes one step's gathered payload: `all` holds, for each of
  /// `num_ranks` ranks, crit_payload_doubles(num_phases) doubles (phase ns
  /// then barrier-wait delta ns).  Ties on work go to the lowest rank so
  /// every rank picks the same binding rank.
  StepInfo step(std::span<const double> all, int num_ranks, int num_phases) {
    if (num_phases > kCritMaxPhases) num_phases = kCritMaxPhases;
    if (static_cast<int>(binds_.size()) < num_ranks) binds_.resize(num_ranks, 0);
    if (num_phases > num_phases_) num_phases_ = num_phases;
    const int stride = crit_payload_doubles(num_phases);

    int binding = 0;
    double max_work = -1.0;
    double sum_total = 0.0;
    double sum_work = 0.0;
    double max_total = 0.0;
    double wait_sum = 0.0;
    for (int r = 0; r < num_ranks; ++r) {
      const double* row = all.data() + static_cast<std::size_t>(r) * stride;
      double total = 0.0;
      for (int p = 0; p < num_phases; ++p) total += row[p];
      double wait = row[num_phases];
      if (wait < 0.0) wait = 0.0;
      if (wait > total) wait = total;  // clock skew guard
      const double work = total - wait;
      if (work > max_work) {
        max_work = work;
        binding = r;
      }
      sum_total += total;
      sum_work += work;
      if (total > max_total) max_total = total;
      wait_sum += wait;
      for (int p = 0; p < num_phases; ++p) {
        phase_sum_ns_[p] += row[p];
        if (r == 0 || row[p] > step_phase_max_[p]) step_phase_max_[p] = row[p];
      }
    }

    const double* crit = all.data() + static_cast<std::size_t>(binding) * stride;
    double crit_total = 0.0;
    for (int p = 0; p < num_phases; ++p) crit_total += crit[p];
    for (int p = 0; p < num_phases; ++p) {
      crit_phase_ns_[p] += crit[p];
      phase_max_ns_[p] += step_phase_max_[p];
    }
    // Waits on the other ranks exist because the binding rank's phases ran
    // long: charge them back pro rata to the binding rank's phase mix.
    const double others_wait = wait_sum - crit[num_phases];
    if (crit_total > 0.0 && others_wait > 0.0) {
      for (int p = 0; p < num_phases; ++p) {
        attributed_wait_ns_[p] += others_wait * (crit[p] / crit_total);
      }
    }

    critical_ns_ += crit_total;
    sum_rank_ns_ += sum_total;
    sum_max_work_ns_ += max_work;
    sum_mean_work_ns_ += num_ranks > 0 ? sum_work / num_ranks : 0.0;
    wait_ns_ += wait_sum;
    ++binds_[binding];
    if (steps_ > 0 && binding != last_binding_) ++switches_;
    last_binding_ = binding;
    ++steps_;
    if (num_ranks > num_ranks_) num_ranks_ = num_ranks;

    StepInfo info;
    info.binding_rank = binding;
    info.critical_ns = crit_total;
    info.work_ns = max_work;
    info.wait_ns = wait_sum;
    return info;
  }

  std::uint64_t steps() const { return steps_; }
  int num_ranks() const { return num_ranks_; }
  int num_phases() const { return num_phases_; }
  /// Sum over steps of the binding rank's contiguous phase total — the
  /// critical path.  Reconciles with the measured step-loop wall.
  double critical_ns() const { return critical_ns_; }
  /// Sum over steps and ranks of contiguous phase totals (mean rank time is
  /// sum_rank_ns / num_ranks).
  double sum_rank_ns() const { return sum_rank_ns_; }
  double wait_ns() const { return wait_ns_; }
  /// The paper's load-imbalance factor: sum over steps of max-over-ranks
  /// work divided by sum over steps of mean-over-ranks work.
  double imbalance_factor() const {
    return sum_mean_work_ns_ > 0.0 ? sum_max_work_ns_ / sum_mean_work_ns_ : 1.0;
  }
  /// Times the binding rank changed between consecutive steps.
  std::uint64_t binding_switches() const { return switches_; }
  /// Switches per step transition, in [0,1]; the ROADMAP item 4 signal.
  double churn() const {
    return steps_ > 1 ? static_cast<double>(switches_) /
                            static_cast<double>(steps_ - 1)
                      : 0.0;
  }
  /// ns of phase `p` on the critical path (sums to critical_ns over p).
  double crit_phase_ns(int p) const { return crit_phase_ns_[p]; }
  /// Non-critical ranks' wait attributed to critical phase `p`.
  double attributed_wait_ns(int p) const { return attributed_wait_ns_[p]; }
  /// Sum over steps and ranks of phase `p` (mean = / (steps*ranks)).
  double phase_sum_ns(int p) const { return phase_sum_ns_[p]; }
  /// Sum over steps of max-over-ranks of phase `p`.
  double phase_max_ns(int p) const { return phase_max_ns_[p]; }
  /// Steps on which rank `r` was the binding rank (sums to steps()).
  std::uint64_t binds(int r) const {
    return r >= 0 && r < static_cast<int>(binds_.size()) ? binds_[r] : 0;
  }

 private:
  std::uint64_t steps_ = 0;
  int num_ranks_ = 0;
  int num_phases_ = 0;
  double critical_ns_ = 0.0;
  double sum_rank_ns_ = 0.0;
  double sum_max_work_ns_ = 0.0;
  double sum_mean_work_ns_ = 0.0;
  double wait_ns_ = 0.0;
  std::uint64_t switches_ = 0;
  int last_binding_ = -1;
  double crit_phase_ns_[kCritMaxPhases] = {};
  double attributed_wait_ns_[kCritMaxPhases] = {};
  double phase_sum_ns_[kCritMaxPhases] = {};
  double phase_max_ns_[kCritMaxPhases] = {};
  double step_phase_max_[kCritMaxPhases] = {};  ///< scratch, per step
  std::vector<std::uint64_t> binds_;
};

// ---------------------------------------------------------------------------
// Report / what-if side (critpath.cpp, linked into simcov_benchreport).
// ---------------------------------------------------------------------------

/// One phase of the critical path.
struct CritPhaseRow {
  std::string phase;
  double critical_s = 0.0;         ///< this phase's share of the path, seconds
  double critical_share = 0.0;     ///< critical_s / total path (sums to 1)
  double attributed_wait_s = 0.0;  ///< other ranks' wait charged to this phase
  double mean_s = 0.0;             ///< mean over ranks, summed over steps
  double max_s = 0.0;              ///< max over ranks, summed over steps
};

/// One rank's presence on the critical path.
struct CritRankRow {
  int rank = 0;
  std::uint64_t steps_bound = 0;
  double share = 0.0;  ///< steps_bound / steps
};

/// One what-if projection: Amdahl over the critical path if `phase` sped up
/// by `factor` (new_phase_time = factor * old; factor 0 removes the phase).
struct WhatIfRow {
  std::string name;      ///< e.g. "concentrations@modeled"
  std::string phase;     ///< phase name, or "all" for rebalancing
  int roadmap_item = 0;  ///< ROADMAP open item this projection prices
  double factor = 1.0;
  double projected_s = 0.0;   ///< projected critical path, seconds
  double speedup = 1.0;       ///< critical_s / projected_s
  double improvement = 0.0;   ///< 1 - projected_s / critical_s
};

/// The accumulated critical path of one run, plus ranked projections.
struct CritPathReport {
  std::uint64_t steps = 0;
  int ranks = 0;
  double critical_s = 0.0;   ///< end-to-end critical path, seconds
  double mean_rank_s = 0.0;  ///< mean rank phase total, seconds
  double imbalance_factor = 1.0;
  std::uint64_t binding_switches = 0;
  double churn = 0.0;
  double wait_s = 0.0;
  /// Host wall time of the step loop alone (between the post-init and
  /// post-loop barriers), seconds.  Not derived from the accumulator — the
  /// backend measures it and the caller fills it in; 0 when unknown.
  double step_wall_s = 0.0;
  /// Step-loop host work outside the phase spans (the critpath gather and
  /// analysis, metric emission, bookkeeping), min-folded over ranks so the
  /// gather's barrier wait is not charged, seconds.  Also caller-filled; 0
  /// when unknown.  Reconciliation identity: critical_s + tail_s ~=
  /// step_wall_s within ~5% (residual is barrier sync and clock
  /// granularity).
  double tail_s = 0.0;
  std::vector<CritPhaseRow> phases;
  std::vector<CritRankRow> ranks_bound;
  std::vector<WhatIfRow> whatif;

  bool empty() const { return steps == 0; }
};

/// Builds the report from rank 0's accumulator.  `phase_names[p]` names
/// phase p (the backends pass perfmodel::phase_name); `modeled_by_phase_s`
/// is the cost model's max-folded per-phase seconds for the same run (may
/// be empty: what-if rows that need the model are then omitted).  What-if
/// rows price ROADMAP items 1 (concentrations at modeled speed), 3 (halo
/// fully overlapped) and 4 (perfect rebalance: path shrinks to mean work),
/// sorted by improvement, best first.
CritPathReport build_critpath_report(
    const CritPathAccum& accum, const std::vector<std::string>& phase_names,
    const std::vector<double>& modeled_by_phase_s);

/// Human-readable critical-path table + what-if ranking (simcov_main
/// --critpath, bench stderr).
void print_critpath_report(std::FILE* out, const CritPathReport& report);

}  // namespace simcov::obs
