// Cross-backend equivalence: the serial reference, the CPU-parallel
// baseline, and the virtual-GPU implementation must produce bit-identical
// simulation state at every step for any decomposition, rank count, tile
// size, and optimization variant.  This is the strongest form of the
// paper's correctness evaluation (§4.1) — their Fig. 5 / Table 2 compare
// statistically; the counter-based RNG design makes exact comparison
// possible here.

#include <gtest/gtest.h>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

SimParams small_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 120;
  p.num_foi = 3;
  p.seed = 1234;
  // Aggressive dynamics so T cells appear and compete within 120 steps.
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  p.expressing_period = 40;
  p.apoptosis_period = 12;
  p.virus_diffusion = 0.4;
  p.infectivity = 0.06;
  p.chem_production = 0.4;
  p.chem_diffusion = 0.8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

std::vector<std::uint64_t> reference_digests(const SimParams& p) {
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  ReferenceSim ref(p, foi_uniform_random(grid, p.num_foi, p.seed));
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(p.num_steps));
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    out.push_back(ref.state_digest());
  }
  return out;
}

int first_divergence(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<int>(i);
  }
  return -1;
}

TEST(Equivalence, CpuMatchesReferenceAcrossRankCounts) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {1, 2, 4, 6}) {
    cpu::CpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = cpu::run_cpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests.size(), ref.size()) << "ranks=" << ranks;
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << "ranks=" << ranks;
  }
}

TEST(Equivalence, CpuLinearDecompositionMatches) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.decomp = Decomposition::Kind::kLinear;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi, opt);
  EXPECT_EQ(first_divergence(ref, r.digests), -1);
}

TEST(Equivalence, GpuMatchesReferenceAllVariants) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (const auto& variant :
       {gpu::GpuVariant::unoptimized(), gpu::GpuVariant::fast_reduction_only(),
        gpu::GpuVariant::memory_tiling_only(), gpu::GpuVariant::combined()}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = 4;
    opt.variant = variant;
    opt.record_digests = true;
    const auto r = gpu::run_gpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests.size(), ref.size()) << variant.name();
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << variant.name();
  }
}

TEST(Equivalence, GpuMatchesReferenceAcrossRankCounts) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {1, 2, 4, 9}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = gpu::run_gpu_sim(p, foi, opt);
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << "ranks=" << ranks;
  }
}

/// Tile size x check period sweep: the §3.2 activation policy must be
/// invisible to simulation semantics for every legal combination.
using TileParam = std::tuple<int, int>;  // tile_side, check_period

class TileSweepEquivalence : public ::testing::TestWithParam<TileParam> {};

TEST_P(TileSweepEquivalence, GpuMatchesReference) {
  const auto [tile, period] = GetParam();
  SimParams p = small_params();
  p.num_steps = 80;
  p.tile_side = tile;
  p.tile_check_period = period;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto r = gpu::run_gpu_sim(p, foi, opt);
  EXPECT_EQ(first_divergence(ref, r.digests), -1)
      << "tile=" << tile << " period=" << period;
}

INSTANTIATE_TEST_SUITE_P(TilePolicies, TileSweepEquivalence,
                         ::testing::Values(TileParam{2, 1}, TileParam{2, 2},
                                           TileParam{4, 2}, TileParam{4, 4},
                                           TileParam{8, 1}, TileParam{8, 8},
                                           TileParam{16, 16},
                                           TileParam{16, 5}));

TEST(Equivalence, UnevenGridAndRankCounts) {
  SimParams p = small_params();
  p.dim_x = 50;   // not divisible by tiles or rank grids
  p.dim_y = 34;
  p.num_steps = 80;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {3, 5, 6}) {
    cpu::CpuSimOptions copt;
    copt.num_ranks = ranks;
    copt.record_digests = true;
    EXPECT_EQ(first_divergence(ref, cpu::run_cpu_sim(p, foi, copt).digests),
              -1)
        << "cpu ranks=" << ranks;
    gpu::GpuSimOptions gopt;
    gopt.num_ranks = ranks;
    gopt.record_digests = true;
    EXPECT_EQ(first_divergence(ref, gpu::run_gpu_sim(p, foi, gopt).digests),
              -1)
        << "gpu ranks=" << ranks;
  }
}

TEST(Equivalence, WithAirwayStructure) {
  SimParams p = small_params();
  p.num_steps = 100;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  // A branching-airway-like cross of empty voxels.
  std::vector<VoxelId> empties;
  for (std::int32_t i = 0; i < 48; ++i) {
    empties.push_back(grid.to_id({24, i, 0}));
    empties.push_back(grid.to_id({i, 24, 0}));
  }
  std::vector<VoxelId> foi = {grid.to_id({10, 10, 0}),
                              grid.to_id({40, 40, 0})};
  ReferenceSim ref(p, foi, empties);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }
  cpu::CpuSimOptions copt;
  copt.num_ranks = 4;
  copt.record_digests = true;
  EXPECT_EQ(first_divergence(ref_digests,
                             cpu::run_cpu_sim(p, foi, copt, empties).digests),
            -1);
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 4;
  gopt.record_digests = true;
  EXPECT_EQ(first_divergence(ref_digests,
                             gpu::run_gpu_sim(p, foi, gopt, empties).digests),
            -1);
}

TEST(Equivalence, StressManyTCellsCrossBoundaries) {
  // Saturate the domain with T cells so conflicts (including cross-rank and
  // three-rank-corner competitions) are frequent, then require exact
  // agreement AND that the scenario actually exercised what it claims.
  SimParams p = small_params();
  p.num_steps = 150;
  p.num_foi = 12;
  p.tcell_initial_delay = 5;
  p.tcell_generation_rate = 40.0;
  p.chem_production = 0.8;
  p.chem_diffusion = 1.0;
  const auto ref_digests = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  ReferenceSim ref(p, foi);
  ref.run(p.num_steps);
  ASSERT_GT(ref.history().back().tcells_tissue, 200u)
      << "stress config produced too few T cells to be a stress test";
  ASSERT_GT(ref.history().back().apoptotic() + ref.history().back().dead(),
            50u);

  cpu::CpuSimOptions copt;
  copt.num_ranks = 9;  // 3x3 rank grid: four interior corners
  copt.record_digests = true;
  const auto c = cpu::run_cpu_sim(p, foi, copt);
  EXPECT_EQ(first_divergence(ref_digests, c.digests), -1);
  // Boundary competition really happened.
  EXPECT_GT(c.comm_total().rpcs_sent, 100u);

  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 9;
  gopt.record_digests = true;
  const auto g = gpu::run_gpu_sim(p, foi, gopt);
  EXPECT_EQ(first_divergence(ref_digests, g.digests), -1);
}

/// Seed sweep: equivalence must hold for arbitrary stochastic trajectories,
/// not just the default seed's.
class SeedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedEquivalence, AllBackendsMatchReference) {
  SimParams p = small_params();
  p.seed = GetParam();
  p.num_steps = 90;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions copt;
  copt.num_ranks = 4;
  copt.record_digests = true;
  EXPECT_EQ(first_divergence(ref, cpu::run_cpu_sim(p, foi, copt).digests), -1);
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 4;
  gopt.record_digests = true;
  EXPECT_EQ(first_divergence(ref, gpu::run_gpu_sim(p, foi, gopt).digests), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedEquivalence,
                         ::testing::Values(1ULL, 7ULL, 99ULL, 2024ULL,
                                           0xdeadbeefULL));

TEST(Equivalence, CpuAndGpuAgreeWithEachOtherOnLongRun) {
  SimParams p = small_params();
  p.num_steps = 220;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions copt;
  copt.num_ranks = 6;
  copt.record_digests = true;
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 6;
  gopt.record_digests = true;
  const auto c = cpu::run_cpu_sim(p, foi, copt);
  const auto g = gpu::run_gpu_sim(p, foi, gopt);
  EXPECT_EQ(first_divergence(c.digests, g.digests), -1);
}

}  // namespace
}  // namespace simcov
