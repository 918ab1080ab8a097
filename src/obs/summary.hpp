#pragma once
// The one end-of-run printer: every table simcov prints after a run, and
// the drift table a bench prints over all its configs, is rendered here
// from one obs::BenchConfig, the record harness::run_report builds (the
// same record a BENCH_<name>.json config is written from).  Callers pick
// sections with a bitmask (--summary=phases,drift,kernels,memory,critpath
// on the driver); print_summary renders the selected, populated sections
// in a fixed order.
//
// Layering: lives in simcov_benchreport (it speaks the perfmodel phase
// vocabulary and reuses the memscope / profile / critpath table printers).

#include <cstdio>
#include <map>
#include <string>

#include "obs/report.hpp"

namespace simcov::obs {

/// Section bits for print_summary / --summary=.
enum SummarySection : unsigned {
  kSummaryPhases = 1u << 0,    ///< measured per-phase wall-clock breakdown
  kSummaryDrift = 1u << 1,     ///< measured-vs-modeled phase drift
  kSummaryKernels = 1u << 2,   ///< KernelProf roofline table
  kSummaryMemory = 1u << 3,    ///< MemScope per-buffer / RSS report
  kSummaryCritpath = 1u << 4,  ///< CritPath binding / what-if report
  kSummaryAll = kSummaryPhases | kSummaryDrift | kSummaryKernels |
                kSummaryMemory | kSummaryCritpath,
};

/// Parses a --summary= selector: a comma-separated subset of
/// phases,drift,kernels,memory,critpath, or "all" / "none".  Throws
/// simcov::Error on an unknown token.
unsigned parse_summary_selector(const std::string& csv);

/// Prints each section that is selected in `sections` and populated:
///   phases    the per-rank "phase.<name>.wall_ns" metrics `counters`
///             (mean and max over ranks, which the record's rank sums
///             cannot give);
///   drift     run.drift, when run.measured_by_phase_s is not empty (a
///             run without metrics has no measured side); the heading
///             names run.label if set;
///   kernels   run.kernels;
///   memory    run.memory with its drift rows and RSS samples;
///   critpath  run.criticalpath.
void print_summary(
    std::FILE* out, const BenchConfig& run, unsigned sections,
    const std::map<std::string, std::map<int, double>>& counters = {});

}  // namespace simcov::obs
