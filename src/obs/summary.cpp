#include "obs/summary.hpp"

#include <algorithm>

#include "obs/report.hpp"
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

std::vector<std::string> phase_name_list() {
  std::vector<std::string> names;
  names.reserve(perfmodel::kNumPhases);
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    names.emplace_back(perfmodel::phase_name(static_cast<perfmodel::Phase>(p)));
  }
  return names;
}

std::vector<double> modeled_phase_list(const perfmodel::RunCost& cost) {
  std::vector<double> s(perfmodel::kNumPhases, 0.0);
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    s[static_cast<std::size_t>(p)] = cost.by_phase[static_cast<std::size_t>(p)];
  }
  return s;
}

namespace {

/// Measured per-phase wall-clock breakdown from the "phase.*.wall_ns"
/// counters the PhaseClock accumulates: mean and max over ranks (the gap
/// between them is load skew) and each phase's share of the total.
/// (Moved here from harness/experiment.cpp so every epilogue goes through
/// the one Summary printer.)
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

}  // namespace

void print_drift_table(
    std::FILE* out, const std::map<std::string, double>& measured_by_phase_s,
    const std::map<std::string, double>& modeled_by_phase_s) {
  const std::vector<DriftRow> rows =
      BenchReport::drift_from(measured_by_phase_s, modeled_by_phase_s);
  // A run can have one side only: a reference config has no model, a
  // modeled-only run may have metrics disabled.  Print what exists and
  // "n/a" for shares whose total is zero.
  const bool have_measured =
      std::any_of(rows.begin(), rows.end(),
                  [](const DriftRow& r) { return r.measured_s > 0.0; });
  const bool have_modeled =
      std::any_of(rows.begin(), rows.end(),
                  [](const DriftRow& r) { return r.modeled_s > 0.0; });
  if (!have_measured && !have_modeled) return;
  TextTable t({"phase", "measured s", "share", "modeled s", "share",
               "divergence"});
  for (const DriftRow& r : rows) {
    t.add_row({r.phase, fmt(r.measured_s, 4),
               have_measured ? fmt(r.measured_share * 100.0, 1) + "%" : "n/a",
               fmt(r.modeled_s, 4),
               have_modeled ? fmt(r.modeled_share * 100.0, 1) + "%" : "n/a",
               have_measured && have_modeled
                   ? fmt(r.divergence * 100.0, 1) + " pp"
                   : "n/a"});
  }
  std::fprintf(out,
               "measured-vs-modeled phase drift (all configs, divergence = "
               "measured share - modeled share):\n%s",
               t.to_string().c_str());
}

void Summary::print(std::FILE* out) const {
  if ((sections & kSummaryPhases) != 0 && !counters.empty()) {
    print_phase_breakdown(out, counters);
  }
  if ((sections & kSummaryDrift) != 0 &&
      (!measured_by_phase_s.empty() || !modeled_by_phase_s.empty())) {
    print_drift_table(out, measured_by_phase_s, modeled_by_phase_s);
  }
  if ((sections & kSummaryKernels) != 0 && !kernels.empty()) {
    print_kernel_profile(out, kernels);
  }
  if ((sections & kSummaryMemory) != 0 && !memory.empty()) {
    print_memory_report(out, memory, mem_drift, rss, rss_samples);
  }
  if ((sections & kSummaryCritpath) != 0 && !critpath.empty()) {
    print_critpath_report(out, critpath);
  }
}

}  // namespace simcov::obs
