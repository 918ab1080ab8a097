#include "obs/summary.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/table.hpp"

namespace simcov::obs {

unsigned parse_summary_selector(const std::string& csv) {
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok == "all") {
      mask |= kSummaryAll;
    } else if (tok == "none") {
      // explicit empty selection; keeps "--summary=none" readable
    } else if (tok == "phases") {
      mask |= kSummaryPhases;
    } else if (tok == "drift") {
      mask |= kSummaryDrift;
    } else if (tok == "kernels") {
      mask |= kSummaryKernels;
    } else if (tok == "memory") {
      mask |= kSummaryMemory;
    } else if (tok == "critpath") {
      mask |= kSummaryCritpath;
    } else {
      throw Error("unknown summary section '" + tok +
                  "' (phases|drift|kernels|memory|critpath|all|none)");
    }
  }
  return mask;
}

namespace {

/// Measured per-phase wall-clock breakdown from the "phase.*.wall_ns"
/// counters the PhaseClock accumulates: mean and max over ranks (the gap
/// between them is load skew) and each phase's share of the total.
void print_phase_breakdown(
    std::FILE* out,
    const std::map<std::string, std::map<int, double>>& counters) {
  struct Row {
    const char* name;
    double mean_ns, max_ns, total_ns;
  };
  std::vector<Row> rows;
  double grand = 0.0;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    const char* name = perfmodel::phase_name(static_cast<perfmodel::Phase>(p));
    const auto it = counters.find(std::string("phase.") + name + ".wall_ns");
    if (it == counters.end() || it->second.empty()) continue;
    double sum = 0.0, mx = 0.0;
    for (const auto& [rank, v] : it->second) {
      sum += v;
      mx = std::max(mx, v);
    }
    rows.push_back({name, sum / static_cast<double>(it->second.size()), mx,
                    sum});
    grand += sum;
  }
  if (rows.empty() || grand <= 0.0) return;
  TextTable t({"phase", "mean ms/rank", "max ms/rank", "share"});
  for (const Row& r : rows) {
    t.add_row({r.name, fmt(r.mean_ns / 1e6, 3), fmt(r.max_ns / 1e6, 3),
               fmt(r.total_ns / grand * 100.0, 1) + "%"});
  }
  std::fprintf(out, "measured phase wall-clock breakdown:\n%s",
               t.to_string().c_str());
}

/// The measured-vs-modeled drift table over `run.drift`; a modeled side
/// that is missing (a reference config has no model) reads "n/a".
void print_drift_table(std::FILE* out, const BenchConfig& run) {
  const bool have_modeled =
      std::any_of(run.drift.begin(), run.drift.end(),
                  [](const DriftRow& r) { return r.modeled_s > 0.0; });
  TextTable t({"phase", "measured s", "share", "modeled s", "share",
               "divergence"});
  for (const DriftRow& r : run.drift) {
    t.add_row({r.phase, fmt(r.measured_s, 4),
               fmt(r.measured_share * 100.0, 1) + "%", fmt(r.modeled_s, 4),
               have_modeled ? fmt(r.modeled_share * 100.0, 1) + "%" : "n/a",
               have_modeled ? fmt(r.divergence * 100.0, 1) + " pp" : "n/a"});
  }
  const std::string scope = run.label.empty() ? "" : run.label + ", ";
  std::fprintf(out,
               "measured-vs-modeled phase drift (%sdivergence = measured "
               "share - modeled share):\n%s",
               scope.c_str(), t.to_string().c_str());
}

}  // namespace

void print_summary(
    std::FILE* out, const BenchConfig& run, unsigned sections,
    const std::map<std::string, std::map<int, double>>& counters) {
  if ((sections & kSummaryPhases) != 0 && !counters.empty()) {
    print_phase_breakdown(out, counters);
  }
  if ((sections & kSummaryDrift) != 0 && !run.measured_by_phase_s.empty()) {
    print_drift_table(out, run);
  }
  if ((sections & kSummaryKernels) != 0 && !run.kernels.empty()) {
    print_kernel_profile(out, run.kernels);
  }
  if ((sections & kSummaryMemory) != 0 && !run.memory.empty()) {
    print_memory_report(out, run.memory, run.mem_drift, run.rss,
                        run.rss_samples);
  }
  if ((sections & kSummaryCritpath) != 0 && !run.criticalpath.empty()) {
    print_critpath_report(out, run.criticalpath);
  }
}

}  // namespace simcov::obs
