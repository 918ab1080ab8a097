#pragma once
// Wall-clock phase instrumentation for a bulk-synchronous rank loop.
//
// The SPMD step ledger (spmd/step_ledger.hpp) marks the end of every
// timestep phase for the performance model; PhaseClock piggybacks on the
// same points so the *measured* phases and the *modeled* phases share one
// enum and one set of names (perfmodel::phase_name).  Per step it produces:
//
//   * one span per phase region on the rank's trace track, covering
//     contiguously from the previous mark to now;
//   * one enclosing "step" span;
//   * cumulative counters "phase.<name>.wall_ns" and "step.wall_ns" per
//     rank in the metrics registry — the input of the end-of-run phase
//     breakdown table (harness::print_phase_breakdown).
//
// When MemScope is active (obs/memscope.hpp process flag), phase boundaries
// additionally feed the OS RSS sampler — the phase grid is exactly the
// cadence at which registry totals should be reconciled against what the OS
// charges, and the sampler's own stride keeps procfs reads rare.
//
// When a CritPathCollector is attached (set_critpath — the step ledger
// attaches one when critical-path analysis is on), every phase boundary additionally
// deposits its wall delta into the collector, and the clock reads happen
// even if the tracer and metrics are off: the critical-path gather needs
// the deltas regardless of which exporters are enabled.
//
// Disabled cost: begin_step pays the enablement loads; phase_end and
// end_step then pay a single branch each (plus one for the memscope flag
// and one null-pointer branch for the critpath collector).

#include <string>

#include "obs/critpath.hpp"
#include "obs/memscope.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace simcov::obs {

class PhaseClock {
 public:
  /// `track` is the PGAS rank id.
  explicit PhaseClock(int track) : track_(track) {}

  /// Attaches (or detaches, with nullptr) a per-rank critical-path
  /// collector.  The collector must outlive the clock's use of it.
  void set_critpath(CritPathCollector* crit) { crit_ = crit; }

  /// Call at the top of step(); re-samples enablement so a tracer enabled
  /// between runs is honoured without reconstructing the simulation.
  void begin_step() {
    trace_ = tracer().enabled();
    metrics_ = metrics().enabled();
    mem_ = memscope_on();
    if (crit_ != nullptr) crit_->begin_step();
    if (!trace_ && !metrics_ && crit_ == nullptr) return;
    step_start_ = now_ns();
    mark_ = step_start_;
  }

  /// Closes the phase region that started at the previous mark (or at
  /// begin_step for the first phase).  `name` must be a static string;
  /// `phase_idx` (when >= 0) routes the delta to the critpath collector
  /// (the step ledger passes the perfmodel::Phase value).
  void phase_end(const char* name, int phase_idx = -1) {
    if (mem_) rss_sampler().sample_phase();
    if (!trace_ && !metrics_ && crit_ == nullptr) return;
    const Nanos t = now_ns();
    if (trace_) tracer().record(name, track_, mark_, t);
    if (metrics_) {
      metrics().add(std::string("phase.") + name + ".wall_ns", track_,
                    static_cast<double>(t - mark_));
    }
    if (crit_ != nullptr && phase_idx >= 0) {
      crit_->add(phase_idx, static_cast<double>(t - mark_));
    }
    mark_ = t;
  }

  /// Closes the enclosing step span at the last phase boundary, so the
  /// step span is exactly its phases.  Returns that time, or 0 when the
  /// clock is off (no reads were taken).
  Nanos end_step() {
    if (!trace_ && !metrics_ && crit_ == nullptr) return 0;
    if (trace_) tracer().record("step", track_, step_start_, mark_);
    if (metrics_) {
      metrics().add("step.wall_ns", track_,
                    static_cast<double>(mark_ - step_start_));
    }
    step_end_ = mark_;
    return step_end_;
  }

  /// Step window of the last begin_step/end_step pair (the critical-path
  /// trace span on the binding rank covers exactly this window).
  Nanos step_start() const { return step_start_; }
  Nanos step_end() const { return step_end_; }

 private:
  int track_;
  bool trace_ = false;
  bool metrics_ = false;
  bool mem_ = false;
  Nanos step_start_ = 0;
  Nanos step_end_ = 0;
  Nanos mark_ = 0;
  CritPathCollector* crit_ = nullptr;
};

}  // namespace simcov::obs
