// Contract tests of the SPMD driver (src/spmd/run.hpp) and its per-rank
// step ledger (src/spmd/step_ledger.hpp), over a toy rank simulation with
// no backend: the toy charges fixed work samples to fixed phases, so every
// number the driver reports can be derived by hand.
// The halo-exchange module (src/spmd/halo.hpp) is tested the same way, with
// tagged strips in place of simulation state.  The *FailFast tests throw on
// one rank mid-run: the job must end with that rank's error, not hang.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fail_fast.hpp"
#include "spmd/halo.hpp"
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
/// Rank `failing_rank` throws "toy failure" from step() at `fail_step`.
class ToyRank {
 public:
  ToyRank(pgas::Rank& rank, spmd::StepLedger& ledger, int failing_rank,
          long long fail_step)
      : rank_(rank), ledger_(ledger), failing_rank_(failing_rank),
        fail_step_(static_cast<std::uint64_t>(fail_step)) {}
  ToyRank(const ToyRank&) = delete;
  ToyRank& operator=(const ToyRank&) = delete;

  void initialize() {}

  StepStats step() {
    if (rank_.id() == failing_rank_ && step_ == fail_step_) {
      throw Error("toy failure");
    }
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

  spmd::RankReport report() { return {}; }

 private:
  pgas::Rank& rank_;
  spmd::StepLedger& ledger_;
  int failing_rank_;
  std::uint64_t fail_step_;
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

spmd::RunOptions toy_options(bool critpath, int ranks = kRanks) {
  spmd::RunOptions opt;
  opt.num_ranks = ranks;
  opt.obs = obs::Config{};
  opt.obs.critpath = critpath;
  return opt;
}

spmd::RunResult run_toy(const spmd::RunOptions& opt, int failing_rank = -1,
                        long long fail_step = 0) {
  return spmd::run_spmd(toy_params(), opt, perfmodel::Backend::kCpu,
                        [&](pgas::Rank& rank, const Decomposition&,
                            spmd::StepLedger& ledger) {
                          return ToyRank(rank, ledger, failing_rank,
                                         fail_step);
                        });
}

TEST(SpmdDriver, CostIsTheHandPricedFoldOfTheSamples) {
  const spmd::RunOptions opt = toy_options(false);
  const spmd::RunResult r = run_toy(opt);

  // The toy does no communication inside its phases, so each phase costs
  // exactly its priced sample; the fold takes the max over ranks per
  // (step, phase) and sums over steps.
  const perfmodel::CostModel model(perfmodel::MachineSpec::perlmutter_like(),
                                   perfmodel::Backend::kCpu, kRanks,
                                   opt.area_scale);
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
  const std::string what = fail_fast::error_of(
      [] { run_toy(toy_options(false), /*failing_rank=*/1, /*fail_step=*/2); });
  EXPECT_NE(what.find("rank 1: toy failure"), std::string::npos) << what;
  EXPECT_EQ(what.find("rank 0:"), std::string::npos) << what;
  EXPECT_EQ(what.find("rank 2:"), std::string::npos) << what;
  EXPECT_EQ(what.find(pgas::TeamAborted().what()), std::string::npos) << what;
}

TEST(SpmdFailFast, StepThrowOnAnyRankAtAnyStepAbortsTheRun) {
  // Critpath on adds obs_allgather's raw waits to every step; digests add
  // an allreduce_xor; the PGAS checker must not turn the abort into a
  // report of its own.
  for (const bool critpath : {false, true}) {
    for (const bool pgas_check : {false, true}) {
      for (int ranks = 1; ranks <= 5; ++ranks) {
        for (int fail_rank = 0; fail_rank < ranks; ++fail_rank) {
          for (long long step = 0; step < kSteps; ++step) {
            SCOPED_TRACE("critpath " + std::to_string(critpath) +
                         ", checker " + std::to_string(pgas_check) + ", " +
                         std::to_string(ranks) + " ranks, rank " +
                         std::to_string(fail_rank) + " fails at step " +
                         std::to_string(step));
            spmd::RunOptions opt = toy_options(critpath, ranks);
            opt.obs.pgas_check = pgas_check;
            opt.record_digests = true;
            const std::string what = fail_fast::error_of(
                [&] { run_toy(opt, fail_rank, step); });
            fail_fast::expect_root_cause(what, fail_rank, ranks,
                                         "toy failure");
          }
        }
      }
    }
  }
}

// ---- spmd::Halo ------------------------------------------------------------

/// One strip voxel as the halo test packs it: the sender, the face it sent
/// along, the strip index, and the global coordinate of the boundary voxel.
struct StripTag {
  std::int32_t rank, face, index, gx, gy, gz;
};

/// What one rank saw over its exchanges.
struct HaloOutcome {
  int ghosts_checked = 0;
  std::vector<std::string> errors;
  std::vector<pgas::CommStats> per_exchange;  ///< comm delta of each call
  std::uint64_t live_faces = 0;
  std::uint64_t strip_bytes = 0;  ///< sum of face strips, in StripTag bytes
};

/// Runs three exchanges on every rank of `dec` under the PGAS discipline
/// checker: stream 0 twice back to back (the bid stages' channel reuse),
/// then stream 1.  Each rank packs StripTags; each unpacked ghost must hold
/// the neighbour's boundary voxel at the same index, mirrored across the
/// face.  run() throws if the checker recorded any violation.
std::vector<HaloOutcome> run_halo(const Decomposition& dec) {
  pgas::RuntimeOptions ropt;
  ropt.obs = obs::Config{};
  ropt.obs.pgas_check = true;
  pgas::Runtime rt(dec.num_ranks(), ropt);
  EXPECT_TRUE(rt.checking_enabled());
  std::vector<HaloOutcome> out(static_cast<std::size_t>(dec.num_ranks()));
  constexpr std::array<std::size_t, 2> kWidths = {sizeof(StripTag),
                                                  sizeof(StripTag)};
  rt.run([&](pgas::Rank& rank) {
    const Subdomain& sub = dec.sub(rank.id());
    HaloOutcome& o = out[static_cast<std::size_t>(rank.id())];
    spmd::Halo halo(rank, sub, kWidths);
    rank.barrier();  // every rank's channels exist before the first put
    auto global = [&](const spmd::StripCoord& c) {
      return Coord{sub.origin.x + c.x, sub.origin.y + c.y, sub.origin.z + c.z};
    };
    auto fail = [&](const std::string& what) {
      o.errors.push_back("rank " + std::to_string(rank.id()) + ": " + what);
    };
    halo.for_each_live_face([&](int f, int) {
      ++o.live_faces;
      o.strip_bytes += halo.face_len(f) * sizeof(StripTag);
    });
    for (const int stream : {0, 0, 1}) {
      const pgas::CommStats before = rank.stats();
      halo.exchange(stream, sizeof(StripTag),
                    [&](int f, std::span<std::byte> bytes) {
        if (bytes.size() != halo.face_len(f) * sizeof(StripTag)) {
          fail("pack span of the wrong size");
          return;
        }
        for (std::size_t i = 0; i < halo.face_len(f); ++i) {
          const Coord c = global(halo.boundary(f, i));
          if (!sub.contains(c)) fail("boundary voxel outside the sub-domain");
          const StripTag t{rank.id(), f, static_cast<std::int32_t>(i),
                           c.x, c.y, c.z};
          std::memcpy(bytes.data() + i * sizeof(StripTag), &t, sizeof t);
        }
      }, [&](int f, std::span<const std::byte> bytes) {
        const int nb = sub.neighbour[static_cast<std::size_t>(f)];
        for (std::size_t i = 0; i < halo.face_len(f); ++i) {
          StripTag t;
          std::memcpy(&t, bytes.data() + i * sizeof(StripTag), sizeof t);
          const Coord g = global(halo.ghost(f, i));
          if (sub.contains(g)) fail("ghost voxel inside the sub-domain");
          if (t.rank != nb || t.face != spmd::Halo::opposite(f) ||
              t.index != static_cast<std::int32_t>(i) || t.gx != g.x ||
              t.gy != g.y || t.gz != g.z) {
            fail("face " + std::to_string(f) + " ghost " + std::to_string(i) +
                 " holds rank " + std::to_string(t.rank) + " face " +
                 std::to_string(t.face) + " index " +
                 std::to_string(t.index));
          }
          ++o.ghosts_checked;
        }
      });
      o.per_exchange.push_back(rank.stats().since(before));
    }
  });
  return out;
}

/// Ghost voxels the decomposition should fill: every face between two
/// sub-domains contributes its strip on both sides.
int expected_ghosts(const Decomposition& dec) {
  int n = 0;
  for (int r = 0; r < dec.num_ranks(); ++r) {
    const Subdomain& s = dec.sub(r);
    for (int f = 0; f < kNumFaces; ++f) {
      if (s.neighbour[static_cast<std::size_t>(f)] < 0) continue;
      n += (f == kFaceXNeg || f == kFaceXPos ? s.extent.y : s.extent.x) *
           s.extent.z;
    }
  }
  return n;
}

void expect_halo_contract(const Decomposition& dec) {
  std::vector<HaloOutcome> out;
  ASSERT_NO_THROW(out = run_halo(dec)) << "PGAS checker violations";
  int ghosts = 0;
  for (const HaloOutcome& o : out) {
    for (const std::string& e : o.errors) ADD_FAILURE() << e;
    ghosts += o.ghosts_checked;
    ASSERT_EQ(o.per_exchange.size(), 3u);
    for (const pgas::CommStats& d : o.per_exchange) {
      EXPECT_EQ(d.puts, o.live_faces);
      EXPECT_EQ(d.put_bytes, o.strip_bytes);
      EXPECT_EQ(d.barriers, 2u);
    }
  }
  EXPECT_EQ(ghosts, 3 * expected_ghosts(dec));
}

TEST(SpmdHalo, SingleRankHasNoFacesAndStillBarriersTwice) {
  const Grid g(8, 8, 1);
  expect_halo_contract(Decomposition(g, 1, 1));
}

TEST(SpmdHalo, TwoByTwoGhostsMirrorNeighbourBoundaries) {
  const Grid g(12, 10, 1);
  expect_halo_contract(Decomposition(g, 2, 2));
}

TEST(SpmdHalo, ThreeByThreeRaggedGhostsMirrorNeighbourBoundaries) {
  const Grid g(13, 11, 1);
  expect_halo_contract(Decomposition(g, 3, 3));
}

TEST(SpmdHalo, RaggedThreeRankGhostsMirrorNeighbourBoundaries) {
  const Grid g(37, 29, 1);
  const Decomposition dec(g, 3, Decomposition::Kind::kBlock2D);
  expect_halo_contract(dec);
}

TEST(SpmdHalo, TwoPlaneStripsAreZMajor) {
  const Grid g(9, 7, 2);
  expect_halo_contract(Decomposition(g, 2, 2));
}

TEST(SpmdFailFast, PackThrowInAHaloExchangeAbortsTheTeam) {
  // Every rank of a 2-5 rank block decomposition has a live face, so its
  // pack callback runs (a single rank has none).
  const Grid g(13, 11, 1);
  constexpr std::array<std::size_t, 1> kWidths = {sizeof(std::uint32_t)};
  constexpr int kExchanges = 3;
  for (const bool checked : {false, true}) {
    for (int ranks = 2; ranks <= 5; ++ranks) {
      const Decomposition dec(g, ranks, Decomposition::Kind::kBlock2D);
      for (int fail_rank = 0; fail_rank < ranks; ++fail_rank) {
        for (int fail_at = 0; fail_at < kExchanges; ++fail_at) {
          SCOPED_TRACE("checker " + std::to_string(checked) + ", " +
                       std::to_string(ranks) + " ranks, rank " +
                       std::to_string(fail_rank) + " fails in exchange " +
                       std::to_string(fail_at));
          pgas::Runtime rt(ranks, {.obs = {.pgas_check = checked}});
          const std::string what = fail_fast::error_of([&] {
            rt.run([&](pgas::Rank& rank) {
              spmd::Halo halo(rank, dec.sub(rank.id()), kWidths);
              rank.barrier();  // every rank's channels exist before a put
              for (int x = 0; x < kExchanges; ++x) {
                halo.exchange(
                    0, sizeof(std::uint32_t),
                    [&](int, std::span<std::byte> out) {
                      if (rank.id() == fail_rank && x == fail_at) {
                        throw Error("pack failure");
                      }
                      std::fill(out.begin(), out.end(), std::byte{0});
                    },
                    [](int, std::span<const std::byte>) {});
              }
            });
          });
          fail_fast::expect_root_cause(what, fail_rank, ranks,
                                       "pack failure");
        }
      }
    }
  }
}

}  // namespace
}  // namespace simcov
