#include "obs/critpath.hpp"

#include <algorithm>

#include "util/table.hpp"

namespace simcov::obs {

namespace {

constexpr double kNsToS = 1e-9;

int find_phase(const std::vector<std::string>& names, std::string_view want,
               int limit) {
  const int n = std::min<int>(limit, static_cast<int>(names.size()));
  for (int p = 0; p < n; ++p) {
    if (names[p] == want) return p;
  }
  return -1;
}

WhatIfRow make_whatif(const std::string& name, const std::string& phase,
                      double factor, double projected_s, double critical_s) {
  WhatIfRow row;
  row.name = name;
  row.phase = phase;
  row.factor = factor;
  row.projected_s = projected_s;
  row.speedup = projected_s > 0.0 ? critical_s / projected_s : 1.0;
  row.improvement = critical_s > 0.0 ? 1.0 - projected_s / critical_s : 0.0;
  return row;
}

}  // namespace

CritPathReport build_critpath_report(
    const CritPathAccum& accum, const std::vector<std::string>& phase_names,
    const std::vector<double>& modeled_by_phase_s) {
  CritPathReport rep;
  rep.steps = accum.steps();
  if (rep.steps == 0) return rep;
  rep.ranks = accum.num_ranks();
  rep.critical_s = accum.critical_ns() * kNsToS;
  rep.mean_rank_s =
      rep.ranks > 0 ? accum.sum_rank_ns() * kNsToS / rep.ranks : 0.0;
  rep.imbalance_factor = accum.imbalance_factor();
  rep.binding_switches = accum.binding_switches();
  rep.churn = accum.churn();
  rep.wait_s = accum.wait_ns() * kNsToS;

  const int num_phases = accum.num_phases();
  rep.phases.reserve(num_phases);
  for (int p = 0; p < num_phases; ++p) {
    CritPhaseRow row;
    row.phase = p < static_cast<int>(phase_names.size())
                    ? phase_names[p]
                    : "phase" + std::to_string(p);
    row.critical_s = accum.crit_phase_ns(p) * kNsToS;
    row.critical_share =
        rep.critical_s > 0.0 ? row.critical_s / rep.critical_s : 0.0;
    row.attributed_wait_s = accum.attributed_wait_ns(p) * kNsToS;
    row.mean_s =
        rep.ranks > 0 ? accum.phase_sum_ns(p) * kNsToS / rep.ranks : 0.0;
    row.max_s = accum.phase_max_ns(p) * kNsToS;
    rep.phases.push_back(std::move(row));
  }

  rep.ranks_bound.reserve(rep.ranks);
  for (int r = 0; r < rep.ranks; ++r) {
    CritRankRow row;
    row.rank = r;
    row.steps_bound = accum.binds(r);
    row.share = static_cast<double>(row.steps_bound) /
                static_cast<double>(rep.steps);
    rep.ranks_bound.push_back(row);
  }

  // What-if projections: Amdahl over the critical path.  Each row prices one
  // named change; factor is the phase's projected time as a fraction of its
  // current critical-path time.
  const int conc = find_phase(phase_names, "concentrations", num_phases);
  if (conc >= 0 && conc < static_cast<int>(modeled_by_phase_s.size())) {
    // concentrations@modeled: the concentrations phase runs at the cost
    // model's (roofline) speed.
    const double crit_p = accum.crit_phase_ns(conc) * kNsToS;
    const double modeled_p = modeled_by_phase_s[conc];
    double factor = crit_p > 0.0 ? modeled_p / crit_p : 1.0;
    factor = std::clamp(factor, 0.0, 1.0);
    const double projected = rep.critical_s - crit_p * (1.0 - factor);
    rep.whatif.push_back(make_whatif("concentrations@modeled",
                                     phase_names[conc], factor, projected,
                                     rep.critical_s));
  }
  const int halo = find_phase(phase_names, "halo", num_phases);
  if (halo >= 0) {
    // halo@overlapped: an async pipeline fully overlaps the halo exchange
    // with interior compute, removing the phase from the path.
    const double crit_p = accum.crit_phase_ns(halo) * kNsToS;
    const double projected = rep.critical_s - crit_p;
    rep.whatif.push_back(make_whatif("halo@overlapped", phase_names[halo],
                                     0.0, projected, rep.critical_s));
  }
  {
    // rebalance@mean: perfect tile stealing collapses the max-over-ranks
    // work to the mean — the path shrinks by the imbalance factor.
    const double factor = rep.imbalance_factor > 0.0
                              ? 1.0 / rep.imbalance_factor
                              : 1.0;
    const double projected = rep.critical_s * factor;
    rep.whatif.push_back(
        make_whatif("rebalance@mean", "all", factor, projected,
                    rep.critical_s));
  }
  std::sort(rep.whatif.begin(), rep.whatif.end(),
            [](const WhatIfRow& a, const WhatIfRow& b) {
              if (a.improvement != b.improvement) {
                return a.improvement > b.improvement;
              }
              return a.name < b.name;
            });
  return rep;
}

void print_critpath_report(std::FILE* out, const CritPathReport& rep) {
  if (rep.empty()) return;
  std::fprintf(out,
               "critical-path report (%llu steps, %d ranks): critical %.3f s, "
               "mean rank %.3f s, imbalance %.3fx, churn %.2f (%llu "
               "switches), wait %.3f s\n",
               static_cast<unsigned long long>(rep.steps), rep.ranks,
               rep.critical_s, rep.mean_rank_s, rep.imbalance_factor,
               rep.churn,
               static_cast<unsigned long long>(rep.binding_switches),
               rep.wait_s);
  if (rep.step_wall_s > 0.0) {
    std::fprintf(out,
                 "step-loop wall %.3f s (critical path %.1f%%, "
                 "observability tail %.1f%%)\n",
                 rep.step_wall_s, 100.0 * rep.critical_s / rep.step_wall_s,
                 100.0 * rep.tail_s / rep.step_wall_s);
  }

  TextTable phases({"phase", "critical s", "share", "+wait s", "mean s",
                    "max s"});
  for (const CritPhaseRow& r : rep.phases) {
    phases.add_row({r.phase, fmt(r.critical_s, 4),
                    fmt(r.critical_share * 100.0, 1) + "%",
                    fmt(r.attributed_wait_s, 4), fmt(r.mean_s, 4),
                    fmt(r.max_s, 4)});
  }
  std::fprintf(out, "%s", phases.to_string().c_str());

  TextTable ranks({"rank", "steps bound", "share"});
  for (const CritRankRow& r : rep.ranks_bound) {
    ranks.add_row({std::to_string(r.rank), std::to_string(r.steps_bound),
                   fmt(r.share * 100.0, 1) + "%"});
  }
  std::fprintf(out, "binding ranks:\n%s", ranks.to_string().c_str());

  if (!rep.whatif.empty()) {
    TextTable wi({"what-if", "phase", "factor", "projected s", "speedup",
                  "improves"});
    for (const WhatIfRow& r : rep.whatif) {
      wi.add_row({r.name, r.phase, fmt(r.factor, 3), fmt(r.projected_s, 4),
                  fmt(r.speedup, 3) + "x",
                  fmt(r.improvement * 100.0, 1) + "%"});
    }
    std::fprintf(out, "what-if (Amdahl over the critical path):\n%s",
                 wi.to_string().c_str());
  }
}

}  // namespace simcov::obs
