// CritPath: binding-rank selection and wait attribution on hand-built
// payloads, churn/imbalance accounting, report identities (shares sum to 1,
// ranks_bound sums to steps, what-if rows sorted and Amdahl-consistent), the
// bit-identity contract (critpath on/off must not change a single simulation
// bit on either backend), the critical-path-vs-step-wall reconciliation on a
// real run, the --summary= selector, and MetricsRegistry series-cap
// downsampling determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/error.hpp"

namespace simcov {
namespace {

// ---- CritPathAccum on synthetic payloads -----------------------------------

// Payload layout per rank: num_phases phase deltas then the barrier wait.
std::vector<double> payload(std::initializer_list<std::vector<double>> rows) {
  std::vector<double> all;
  for (const auto& row : rows) all.insert(all.end(), row.begin(), row.end());
  return all;
}

TEST(CritPathAccum, BindingRankIsMaxWorkAndWaitIsAttributedProRata) {
  obs::CritPathAccum a;
  // Rank 0: 100ns + 50ns of phase time, no wait -> work 150.
  // Rank 1: 60ns + 40ns of phase time, 50ns wait -> work 50.
  const auto all = payload({{100.0, 50.0, 0.0}, {60.0, 40.0, 50.0}});
  const auto info = a.step(std::span<const double>(all), 2, 2);

  EXPECT_EQ(info.binding_rank, 0);
  EXPECT_DOUBLE_EQ(info.critical_ns, 150.0);
  EXPECT_DOUBLE_EQ(info.work_ns, 150.0);
  EXPECT_DOUBLE_EQ(info.wait_ns, 50.0);

  EXPECT_EQ(a.steps(), 1u);
  EXPECT_EQ(a.num_ranks(), 2);
  EXPECT_EQ(a.num_phases(), 2);
  EXPECT_DOUBLE_EQ(a.critical_ns(), 150.0);
  EXPECT_DOUBLE_EQ(a.sum_rank_ns(), 250.0);
  EXPECT_DOUBLE_EQ(a.wait_ns(), 50.0);
  EXPECT_EQ(a.binds(0), 1u);
  EXPECT_EQ(a.binds(1), 0u);

  // The critical path is rank 0's phase vector.
  EXPECT_DOUBLE_EQ(a.crit_phase_ns(0), 100.0);
  EXPECT_DOUBLE_EQ(a.crit_phase_ns(1), 50.0);
  // Rank 1's 50ns wait exists because rank 0 ran long: charged back pro
  // rata to rank 0's 100/50 phase mix.
  EXPECT_DOUBLE_EQ(a.attributed_wait_ns(0), 50.0 * 100.0 / 150.0);
  EXPECT_DOUBLE_EQ(a.attributed_wait_ns(1), 50.0 * 50.0 / 150.0);
  // Per-phase sums over ranks and per-step maxes over ranks.
  EXPECT_DOUBLE_EQ(a.phase_sum_ns(0), 160.0);
  EXPECT_DOUBLE_EQ(a.phase_sum_ns(1), 90.0);
  EXPECT_DOUBLE_EQ(a.phase_max_ns(0), 100.0);
  EXPECT_DOUBLE_EQ(a.phase_max_ns(1), 50.0);

  // max work 150 over mean work (150 + 50) / 2 = 100.
  EXPECT_DOUBLE_EQ(a.imbalance_factor(), 1.5);
}

TEST(CritPathAccum, WorkTieGoesToLowestRank) {
  obs::CritPathAccum a;
  const auto all = payload({{70.0, 30.0, 0.0}, {50.0, 50.0, 0.0}});
  EXPECT_EQ(a.step(std::span<const double>(all), 2, 2).binding_rank, 0);
}

TEST(CritPathAccum, SkewedWaitIsClampedToPhaseTotal) {
  obs::CritPathAccum a;
  // Rank 1 reports more wait than phase time (clock skew): clamp to total,
  // so its work is 0 and rank 0 binds; negative wait also clamps (to 0).
  const auto all = payload({{10.0, 10.0, -5.0}, {40.0, 40.0, 200.0}});
  const auto info = a.step(std::span<const double>(all), 2, 2);
  EXPECT_EQ(info.binding_rank, 0);
  EXPECT_DOUBLE_EQ(info.work_ns, 20.0);
  EXPECT_DOUBLE_EQ(info.wait_ns, 80.0);  // clamped: 0 + 80
}

TEST(CritPathAccum, ChurnCountsBindingSwitchesPerTransition) {
  obs::CritPathAccum a;
  const auto bind0 = payload({{100.0, 0.0}, {10.0, 0.0}});
  const auto bind1 = payload({{10.0, 0.0}, {100.0, 0.0}});
  a.step(std::span<const double>(bind0), 2, 1);
  a.step(std::span<const double>(bind1), 2, 1);  // switch
  a.step(std::span<const double>(bind1), 2, 1);  // no switch
  a.step(std::span<const double>(bind0), 2, 1);  // switch
  EXPECT_EQ(a.steps(), 4u);
  EXPECT_EQ(a.binding_switches(), 2u);
  EXPECT_DOUBLE_EQ(a.churn(), 2.0 / 3.0);
  EXPECT_EQ(a.binds(0), 2u);
  EXPECT_EQ(a.binds(1), 2u);
}

// ---- build_critpath_report identities --------------------------------------

obs::CritPathAccum two_step_accum() {
  obs::CritPathAccum a;
  // Phase 0 "concentrations", phase 1 "halo"; 1e9 ns = 1 s units.
  const auto s1 = payload({{3e9, 1e9, 0.0}, {1e9, 1e9, 2e9}});
  const auto s2 = payload({{1e9, 0.5e9, 2.5e9}, {2e9, 2e9, 0.0}});
  a.step(std::span<const double>(s1), 2, 2);
  a.step(std::span<const double>(s2), 2, 2);
  return a;
}

TEST(CritPathReport, SharesSumToOneAndRanksBoundSumToSteps) {
  const auto a = two_step_accum();
  const std::vector<std::string> names = {"concentrations", "halo"};
  const auto rep = obs::build_critpath_report(a, names, {2.0, 0.5});

  ASSERT_FALSE(rep.empty());
  EXPECT_EQ(rep.steps, 2u);
  EXPECT_EQ(rep.ranks, 2);
  // Step 1 binds rank 0 (crit 4s); step 2 binds rank 1 (crit 4s).
  EXPECT_DOUBLE_EQ(rep.critical_s, 8.0);
  EXPECT_DOUBLE_EQ(rep.mean_rank_s, (4.0 + 2.0 + 1.5 + 4.0) / 2.0);

  ASSERT_EQ(rep.phases.size(), 2u);
  double share_sum = 0.0;
  double crit_sum = 0.0;
  for (const auto& row : rep.phases) {
    EXPECT_GE(row.critical_share, 0.0);
    EXPECT_LE(row.critical_share, 1.0);
    EXPECT_LE(row.critical_s, row.max_s + 1e-12);  // crit path <= per-step max
    share_sum += row.critical_share;
    crit_sum += row.critical_s;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-12);
  EXPECT_NEAR(crit_sum, rep.critical_s, 1e-9);

  ASSERT_EQ(rep.ranks_bound.size(), 2u);
  std::uint64_t bound = 0;
  double bound_share = 0.0;
  for (const auto& row : rep.ranks_bound) {
    bound += row.steps_bound;
    bound_share += row.share;
  }
  EXPECT_EQ(bound, rep.steps);
  EXPECT_NEAR(bound_share, 1.0, 1e-12);
}

TEST(CritPathReport, WhatIfRowsAreTheNamedProjectionsSortedByImprovement) {
  const auto a = two_step_accum();
  const std::vector<std::string> names = {"concentrations", "halo"};
  const auto rep = obs::build_critpath_report(a, names, {2.0, 0.5});

  ASSERT_EQ(rep.whatif.size(), 3u);
  std::vector<std::string> rows;
  for (const auto& w : rep.whatif) {
    rows.push_back(w.name);
    // Amdahl identities: projection never exceeds the path, speedup and
    // improvement are two views of the same ratio.
    EXPECT_GT(w.projected_s, 0.0);
    EXPECT_LE(w.projected_s, rep.critical_s + 1e-12);
    EXPECT_NEAR(w.speedup, rep.critical_s / w.projected_s, 1e-9);
    EXPECT_NEAR(w.improvement, 1.0 - w.projected_s / rep.critical_s, 1e-9);
    EXPECT_GE(w.factor, 0.0);
    EXPECT_LE(w.factor, 1.0);
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{"concentrations@modeled",
                                            "halo@overlapped",
                                            "rebalance@mean"}));
  for (std::size_t i = 1; i < rep.whatif.size(); ++i) {
    EXPECT_GE(rep.whatif[i - 1].improvement, rep.whatif[i].improvement);
  }

  // Halo contributes 1s + 2s = 3s to the 8s path; overlapping removes it.
  for (const auto& w : rep.whatif) {
    if (w.name == "halo@overlapped") {
      EXPECT_DOUBLE_EQ(w.projected_s, 8.0 - 3.0);
      EXPECT_DOUBLE_EQ(w.factor, 0.0);
    }
    if (w.name == "rebalance@mean") {
      EXPECT_NEAR(w.projected_s, rep.critical_s / rep.imbalance_factor, 1e-9);
    }
  }
}

TEST(CritPathReport, EmptyAccumAndMissingModelDegradeGracefully) {
  obs::CritPathAccum empty;
  EXPECT_TRUE(obs::build_critpath_report(empty, {}, {}).empty());

  // Without modeled costs the concentrations@modeled row is omitted; the
  // other two survive.
  const auto a = two_step_accum();
  const auto rep = obs::build_critpath_report(
      a, {"concentrations", "halo"}, {});
  ASSERT_EQ(rep.whatif.size(), 2u);
  for (const auto& w : rep.whatif) {
    EXPECT_NE(w.name, "concentrations@modeled");
  }
}

// ---- full runs: bit-identity and wall reconciliation ------------------------

SimParams small_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 30;
  p.num_foi = 3;
  p.seed = 1234;
  p.tcell_initial_delay = 10;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

TEST(CritPathRuns, GpuDigestsBitIdenticalWithCritpathOnOrOff) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions off;
  off.num_ranks = 4;
  off.record_digests = true;
  gpu::GpuSimOptions on = off;
  on.obs.critpath = true;

  const auto r_off = gpu::run_gpu_sim(p, foi, off);
  const auto r_on = gpu::run_gpu_sim(p, foi, on);
  ASSERT_FALSE(r_on.digests.empty());
  EXPECT_EQ(r_on.digests, r_off.digests);
  EXPECT_EQ(r_off.critpath.steps(), 0u);
  EXPECT_EQ(r_on.critpath.steps(), static_cast<std::uint64_t>(p.num_steps));
  EXPECT_EQ(r_on.critpath.num_ranks(), 4);
  // The gather is observability-only: comm counters are untouched.
  ASSERT_EQ(r_on.comm_by_rank.size(), r_off.comm_by_rank.size());
  for (std::size_t i = 0; i < r_on.comm_by_rank.size(); ++i) {
    EXPECT_EQ(r_on.comm_by_rank[i].reductions, r_off.comm_by_rank[i].reductions);
    EXPECT_EQ(r_on.comm_by_rank[i].put_bytes, r_off.comm_by_rank[i].put_bytes);
  }
}

TEST(CritPathRuns, CpuDigestsBitIdenticalWithCritpathOnOrOff) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  cpu::CpuSimOptions off;
  off.num_ranks = 4;
  off.record_digests = true;
  cpu::CpuSimOptions on = off;
  on.obs.critpath = true;

  const auto r_off = cpu::run_cpu_sim(p, foi, off);
  const auto r_on = cpu::run_cpu_sim(p, foi, on);
  ASSERT_FALSE(r_on.digests.empty());
  EXPECT_EQ(r_on.digests, r_off.digests);
  EXPECT_EQ(r_off.critpath.steps(), 0u);
  EXPECT_EQ(r_on.critpath.steps(), static_cast<std::uint64_t>(p.num_steps));
  EXPECT_EQ(r_on.critpath.num_ranks(), 4);
  // The gather is observability-only: comm counters (RPCs included) are
  // untouched.
  ASSERT_EQ(r_on.comm_by_rank.size(), r_off.comm_by_rank.size());
  for (std::size_t i = 0; i < r_on.comm_by_rank.size(); ++i) {
    EXPECT_EQ(r_on.comm_by_rank[i].reductions, r_off.comm_by_rank[i].reductions);
    EXPECT_EQ(r_on.comm_by_rank[i].put_bytes, r_off.comm_by_rank[i].put_bytes);
    EXPECT_EQ(r_on.comm_by_rank[i].rpcs_sent, r_off.comm_by_rank[i].rpcs_sent);
  }
  // Every step bound some rank, and the phase decomposition tiles the path.
  std::uint64_t bound = 0;
  for (int rank = 0; rank < r_on.critpath.num_ranks(); ++rank) {
    bound += r_on.critpath.binds(rank);
  }
  EXPECT_EQ(bound, r_on.critpath.steps());
  double phase_crit = 0.0;
  for (int ph = 0; ph < r_on.critpath.num_phases(); ++ph) {
    phase_crit += r_on.critpath.crit_phase_ns(ph);
  }
  EXPECT_NEAR(phase_crit, r_on.critpath.critical_ns(),
              1e-6 * r_on.critpath.critical_ns());
}

TEST(CritPathRuns, CriticalPathPlusTailReconcilesWithStepLoopWall) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.obs.critpath = true;
  const auto r = gpu::run_gpu_sim(p, foi, opt);

  ASSERT_GT(r.critpath.steps(), 0u);
  const double crit = r.critpath.critical_ns() / 1e9;
  EXPECT_GT(crit, 0.0);
  EXPECT_GT(r.step_loop_wall_s, 0.0);
  EXPECT_GE(r.step_tail_s, 0.0);
  // The bench gate (fig4_ablation) holds the identity to 5% on long runs;
  // this unit run is tiny, so only sanity-band it: the path fits inside the
  // loop wall and, with the tail, accounts for most of it.
  EXPECT_LE(crit, r.step_loop_wall_s * 1.10);
  EXPECT_GE(crit + r.step_tail_s, 0.5 * r.step_loop_wall_s);
  EXPECT_LE(crit + r.step_tail_s, 1.10 * r.step_loop_wall_s);

  // Every step bound some rank, and the phase decomposition tiles the path.
  std::uint64_t bound = 0;
  for (int rank = 0; rank < r.critpath.num_ranks(); ++rank) {
    bound += r.critpath.binds(rank);
  }
  EXPECT_EQ(bound, r.critpath.steps());
  double phase_crit = 0.0;
  for (int ph = 0; ph < r.critpath.num_phases(); ++ph) {
    phase_crit += r.critpath.crit_phase_ns(ph);
  }
  EXPECT_NEAR(phase_crit, r.critpath.critical_ns(),
              1e-6 * r.critpath.critical_ns());
}

// ---- --summary= selector ----------------------------------------------------

TEST(SummarySelector, ParsesTokensAllNoneAndRejectsUnknown) {
  EXPECT_EQ(obs::parse_summary_selector("all"), obs::kSummaryAll);
  EXPECT_EQ(obs::parse_summary_selector("none"), 0u);
  EXPECT_EQ(obs::parse_summary_selector("critpath"), obs::kSummaryCritpath);
  EXPECT_EQ(obs::parse_summary_selector("phases,critpath"),
            obs::kSummaryPhases | obs::kSummaryCritpath);
  EXPECT_EQ(obs::parse_summary_selector("drift,kernels,memory"),
            obs::kSummaryDrift | obs::kSummaryKernels | obs::kSummaryMemory);
  EXPECT_THROW(obs::parse_summary_selector("critpaths"), simcov::Error);
  EXPECT_THROW(obs::parse_summary_selector("phases,bogus"), simcov::Error);
}

// ---- MetricsRegistry series cap ---------------------------------------------

TEST(SeriesCap, DownsamplingIsBoundedAndDeterministic) {
  obs::MetricsRegistry a;
  a.set_series_cap(8);
  a.enable();
  for (std::uint64_t s = 0; s < 100; ++s) {
    a.step_value("t.series", 0, s, static_cast<double>(s) * 2.0);
  }
  EXPECT_LE(a.series_size("t.series", 0), 8u);
  const std::uint64_t stride = a.series_stride("t.series", 0);
  EXPECT_GE(stride, 1u);
  EXPECT_EQ(stride & (stride - 1), 0u);  // power of two: halving only

  // Identical input -> bit-identical retained series.
  obs::MetricsRegistry b;
  b.set_series_cap(8);
  b.enable();
  for (std::uint64_t s = 0; s < 100; ++s) {
    b.step_value("t.series", 0, s, static_cast<double>(s) * 2.0);
  }
  EXPECT_EQ(a.to_json(), b.to_json());

  // Cap 0 disables downsampling entirely.
  obs::MetricsRegistry c;
  c.set_series_cap(0);
  c.enable();
  for (std::uint64_t s = 0; s < 100; ++s) {
    c.step_value("t.series", 0, s, static_cast<double>(s));
  }
  EXPECT_EQ(c.series_size("t.series", 0), 100u);
  EXPECT_EQ(c.series_stride("t.series", 0), 1u);
}

}  // namespace
}  // namespace simcov
