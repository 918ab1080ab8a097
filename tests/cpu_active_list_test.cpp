// SIMCoV-CPU active-list upkeep at the edges of the padded rank layout.
//
// Every rank's sub-domain corners, the global corners and points on the
// global x/y edges are seeded, so from the first step the active set reaches
// into the ghost ring, across rank-boundary corners and (in 3D) onto the
// global z planes.  The trajectory must match the serial reference bit for
// bit, and the modeled seconds — priced from the list-op and voxel-update
// counts — must equal values pinned from the flag-array, sort-based active
// list that the bitmap replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "core/airways.hpp"
#include "core/decomposition.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "simcov_cpu/cpu_sim.hpp"

namespace simcov {
namespace {

using PhaseSeconds = std::array<double, perfmodel::kNumPhases>;

SimParams edge_params(std::int32_t dx, std::int32_t dy, std::int32_t dz) {
  SimParams p = SimParams::bench_fast();
  p.dim_x = dx;
  p.dim_y = dy;
  p.dim_z = dz;
  p.num_steps = 60;
  p.seed = 4242;
  p.tcell_initial_delay = 10;
  p.tcell_generation_rate = 20.0;
  p.incubation_period = 6;
  p.expressing_period = 30;
  p.apoptosis_period = 10;
  p.infectivity = 0.08;
  p.virus_diffusion = 0.5;
  p.chem_production = 0.5;
  p.chem_diffusion = 0.8;
  return p;
}

/// The corners of every rank's sub-domain on the first and last z plane,
/// plus a point inside each global x/y edge; airway voxels cannot be seeded.
std::vector<VoxelId> edge_foi(const Grid& grid, int ranks,
                              const std::vector<VoxelId>& empties) {
  const Decomposition dec(grid, ranks, Decomposition::Kind::kBlock2D);
  const std::int32_t dx = grid.dim_x(), dy = grid.dim_y();
  std::vector<VoxelId> foi;
  for (int r = 0; r < ranks; ++r) {
    const Subdomain& s = dec.sub(r);
    for (std::int32_t z : {0, grid.dim_z() - 1}) {
      for (std::int32_t x : {s.origin.x, s.origin.x + s.extent.x - 1}) {
        for (std::int32_t y : {s.origin.y, s.origin.y + s.extent.y - 1}) {
          foi.push_back(grid.to_id({x, y, z}));
        }
      }
    }
  }
  for (const Coord& c : {Coord{0, dy / 3, 0}, Coord{dx - 1, 2 * dy / 3, 0},
                         Coord{dx / 3, 0, 0}, Coord{2 * dx / 3, dy - 1, 0}}) {
    foi.push_back(grid.to_id(c));
  }
  std::sort(foi.begin(), foi.end());
  foi.erase(std::unique(foi.begin(), foi.end()), foi.end());
  std::erase_if(foi, [&](VoxelId v) {
    return std::binary_search(empties.begin(), empties.end(), v);
  });
  return foi;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Runs the CPU backend and the reference on the same inputs; checks the
/// per-step digests and the modeled seconds against the pinned values.
void check_run(const SimParams& p, int ranks,
               const std::vector<VoxelId>& empties, double want_total,
               const PhaseSeconds& want_by_phase) {
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = edge_foi(grid, ranks, empties);
  ASSERT_GE(foi.size(), 4u * static_cast<std::size_t>(ranks));
  ReferenceSim ref(p, foi, empties);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }
  ASSERT_GT(ref.history().back().tcells_tissue, 0u)
      << "no T cells reached the tissue: the T-cell marks went untested";

  cpu::CpuSimOptions opt;
  opt.num_ranks = ranks;
  opt.record_digests = true;
  const cpu::CpuRunResult r = cpu::run_cpu_sim(p, foi, opt, empties);
  ASSERT_EQ(r.digests.size(), ref_digests.size());
  for (std::size_t s = 0; s < ref_digests.size(); ++s) {
    ASSERT_EQ(r.digests[s], ref_digests[s]) << "first divergence at step " << s;
  }
  EXPECT_EQ(r.cost.total_s, want_total) << hex(r.cost.total_s);
  for (std::size_t i = 0; i < want_by_phase.size(); ++i) {
    EXPECT_EQ(r.cost.by_phase[i], want_by_phase[i])
        << perfmodel::phase_name(static_cast<perfmodel::Phase>(i)) << " "
        << hex(r.cost.by_phase[i]);
  }
}

TEST(CpuActiveList, AirwayGrid2DOnFourRanks) {
  const SimParams p = edge_params(40, 36, 1);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  check_run(p, 4, airway_voxels(grid, AirwayParams{}), 0x1.1f0e67d34f318p-7,
            {0x1.b3f1f06f53977p-10, 0x1.c0bcf411b5346p-12,
             0x1.1916e14cdc19dp-8, 0x1.4bcc01e80a5a1p-10, 0x0p+0,
             0x1.242a8a0b3de5cp-10});
}

TEST(CpuActiveList, Grid3DOnSixRanks) {
  const SimParams p = edge_params(30, 26, 4);
  check_run(p, 6, {}, 0x1.8bbe15c916f94p-7,
            {0x1.14ebf87963cf8p-9, 0x1.76b56902f8d8ap-11,
             0x1.931ed7bda1919p-8, 0x1.cb036e84246a1p-10, 0x0p+0,
             0x1.613f3b59c90b2p-10});
}

}  // namespace
}  // namespace simcov
