// Contract tests of the SPMD driver (src/spmd/run.hpp) and its per-rank
// step ledger (src/spmd/step_ledger.hpp), over a toy rank simulation with
// no backend: the toy charges fixed work samples to fixed phases, so every
// number the driver reports can be derived by hand.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "spmd/run.hpp"

namespace simcov {
namespace {

constexpr int kRanks = 3;
constexpr long long kSteps = 5;

/// The fixed samples rank `r` charges every step: uneven across ranks so
/// the bulk-synchronous fold has a real max to take.
perfmodel::WorkSample tcells_sample(int r) {
  perfmodel::WorkSample s;
  s.cpu_voxel_updates = 1000u * static_cast<std::uint64_t>(r + 1);
  s.cpu_list_ops = 10;
  return s;
}
perfmodel::WorkSample reduce_sample(int r) {
  perfmodel::WorkSample s;
  s.cpu_list_ops = 500u - 100u * static_cast<std::uint64_t>(r);
  return s;
}

/// The four-method rank simulation contract, with no simulation behind it.
class ToyRank {
 public:
  ToyRank(pgas::Rank& rank, spmd::StepLedger& ledger, int failing_rank)
      : rank_(rank), ledger_(ledger), failing_rank_(failing_rank) {}
  ToyRank(const ToyRank&) = delete;
  ToyRank& operator=(const ToyRank&) = delete;

  void initialize() {}

  StepStats step() {
    ledger_.phase_end(perfmodel::Phase::kTCells, tcells_sample(rank_.id()));
    ledger_.phase_end(perfmodel::Phase::kReduceStats,
                      reduce_sample(rank_.id()));
    StepStats s;
    s.virus_total = static_cast<double>(step_);
    s.tcells_tissue = 2 * step_;
    ++step_;
    return s;
  }

  std::uint64_t local_digest() {
    return static_cast<std::uint64_t>(rank_.id() + 1) << 8 | step_;
  }

  spmd::RankReport report() {
    spmd::RankReport rep;
    if (rank_.id() == failing_rank_) rep.error = "toy failure";
    return rep;
  }

 private:
  pgas::Rank& rank_;
  spmd::StepLedger& ledger_;
  int failing_rank_;
  std::uint64_t step_ = 0;
};

SimParams toy_params() {
  SimParams p;
  p.dim_x = 12;
  p.dim_y = 12;
  p.dim_z = 1;
  p.num_steps = kSteps;
  return p;
}

spmd::RunOptions toy_options(bool critpath) {
  spmd::RunOptions opt;
  opt.num_ranks = kRanks;
  opt.obs = obs::Config{};
  opt.obs.critpath = critpath;
  return opt;
}

spmd::RunResult run_toy(const spmd::RunOptions& opt, int failing_rank = -1) {
  return spmd::run_spmd(toy_params(), opt, perfmodel::Backend::kCpu,
                        [&](pgas::Rank& rank, const Decomposition&,
                            spmd::StepLedger& ledger) {
                          return ToyRank(rank, ledger, failing_rank);
                        });
}

TEST(SpmdDriver, CostIsTheHandPricedFoldOfTheSamples) {
  const spmd::RunOptions opt = toy_options(false);
  const spmd::RunResult r = run_toy(opt);

  // The toy does no communication inside its phases, so each phase costs
  // exactly its priced sample; the fold takes the max over ranks per
  // (step, phase) and sums over steps.
  const perfmodel::CostModel model(opt.machine, perfmodel::Backend::kCpu,
                                   kRanks, opt.area_scale);
  double tcells = 0.0, reduce = 0.0;
  for (int rank = 0; rank < kRanks; ++rank) {
    tcells = std::max(tcells, model.price(tcells_sample(rank)));
    reduce = std::max(reduce, model.price(reduce_sample(rank)));
  }
  perfmodel::RunCost expected;
  for (long long s = 0; s < kSteps; ++s) {
    for (int p = 0; p < perfmodel::kNumPhases; ++p) {
      const auto phase = static_cast<perfmodel::Phase>(p);
      const double mx = phase == perfmodel::Phase::kTCells        ? tcells
                        : phase == perfmodel::Phase::kReduceStats ? reduce
                                                                  : 0.0;
      expected.by_phase[static_cast<std::size_t>(p)] += mx;
      expected.total_s += mx;
    }
  }
  ASSERT_GT(tcells, 0.0);
  ASSERT_GT(reduce, 0.0);
  EXPECT_EQ(r.cost.by_phase, expected.by_phase);
  EXPECT_EQ(r.cost.total_s, expected.total_s);
}

TEST(SpmdDriver, HistoryAndDigestsAreWhatTheStepsReturned) {
  spmd::RunOptions opt = toy_options(false);
  opt.record_digests = true;
  const spmd::RunResult r = run_toy(opt);
  ASSERT_EQ(r.history.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(r.digests.size(), static_cast<std::size_t>(kSteps));
  for (std::size_t s = 0; s < r.history.size(); ++s) {
    EXPECT_EQ(r.history[s].virus_total, static_cast<double>(s));
    EXPECT_EQ(r.history[s].tcells_tissue, 2 * s);
    std::uint64_t digest = 0;  // XOR over ranks, taken after step s
    for (int rank = 0; rank < kRanks; ++rank) {
      digest ^= static_cast<std::uint64_t>(rank + 1) << 8 | (s + 1);
    }
    EXPECT_EQ(r.digests[s], digest);
  }
  EXPECT_EQ(r.comm_by_rank.size(), static_cast<std::size_t>(kRanks));
  EXPECT_GT(r.step_loop_wall_s, 0.0);
  EXPECT_GE(r.step_tail_s, 0.0);
}

TEST(SpmdDriver, CritPathAnalyzesEveryStepWhenOnAndNoneWhenOff) {
  const spmd::RunResult on = run_toy(toy_options(true));
  EXPECT_EQ(on.critpath.steps(), static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(on.critpath.num_ranks(), kRanks);
  std::uint64_t bound = 0;
  for (int rank = 0; rank < on.critpath.num_ranks(); ++rank) {
    bound += on.critpath.binds(rank);
  }
  EXPECT_EQ(bound, on.critpath.steps());
  EXPECT_GE(on.step_tail_s, 0.0);

  const spmd::RunResult off = run_toy(toy_options(false));
  EXPECT_EQ(off.critpath.steps(), 0u);
  // The gather is observability-only: same modeled cost either way.
  EXPECT_EQ(on.cost.by_phase, off.cost.by_phase);
}

TEST(SpmdDriver, RankErrorComesBackAsOneErrorNamingTheRank) {
  try {
    run_toy(toy_options(false), /*failing_rank=*/1);
    FAIL() << "expected the deferred rank error to be thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1: toy failure"), std::string::npos) << what;
    EXPECT_EQ(what.find("rank 0:"), std::string::npos) << what;
    EXPECT_EQ(what.find("rank 2:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace simcov
