// Ablation: memory-tiling design choices (§3.2).
//
// Two sweeps on a sparse-activity simulation:
//  (a) tile side (check period = tile side): small tiles track activity
//      tightly but pay sweep + always-active-border overhead; large tiles
//      process more inactive voxels per active region.
//  (b) check period at a fixed tile side: frequent sweeps cost kernel time,
//      infrequent sweeps keep stale tiles active longer.  The paper bounds
//      the period by the tile side; validation enforces that bound.
//
// Every configuration computes the identical simulation (equivalence is
// covered by tests); only the modeled cost and executed work change.

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "ablation_tiling",
      "Ablation: tile size and active-check period (design choices of §3.2)",
      "(not a paper figure; supports the §3.2 design discussion)",
      "4 virtual GPUs, 256^2 voxels, 8 FOI, 240 steps, sparse activity");

  harness::RunSpec spec;
  spec.params = bench::bench_params(256, 256, 240, 8);
  spec.params.min_virus = 1e-4;  // keep activity localized (sparse regime)
  spec.params.min_chem = 1e-4;
  spec.params.chem_diffusion = 0.6;
  spec.area_scale = bench::kGpuAreaScale;

  {
    TextTable t({"tile side", "modeled time (s)", "update (s)",
                 "tile sweep (s)", "reduce (s)"});
    for (int tile : {2, 4, 8, 16, 32}) {
      harness::RunSpec s = spec;
      s.params.tile_side = tile;
      s.params.tile_check_period = tile;
      const auto r = rep.run_gpu("tile " + std::to_string(tile), s, 4);
      t.add_row({std::to_string(tile), fmt(r.cost.total_s),
                 fmt(r.cost.update_agents_s()),
                 fmt(r.cost.by_phase[static_cast<int>(
                     perfmodel::Phase::kTileSweep)]),
                 fmt(r.cost.reduce_stats_s())});
      std::fprintf(stderr, "  tile=%d done\n", tile);
    }
    std::printf("(a) tile side sweep, check period = tile side\n%s\n",
                t.to_string().c_str());
  }
  {
    TextTable t({"check period", "modeled time (s)", "update (s)",
                 "tile sweep (s)"});
    for (int period : {1, 2, 4, 8}) {
      harness::RunSpec s = spec;
      s.params.tile_side = 8;
      s.params.tile_check_period = period;
      const auto r = rep.run_gpu("period " + std::to_string(period), s, 4);
      t.add_row({std::to_string(period), fmt(r.cost.total_s),
                 fmt(r.cost.update_agents_s()),
                 fmt(r.cost.by_phase[static_cast<int>(
                     perfmodel::Phase::kTileSweep)])});
      std::fprintf(stderr, "  period=%d done\n", period);
    }
    std::printf("(b) check period sweep at tile side 8\n%s\n",
                t.to_string().c_str());
  }
  std::printf("NOTE: 'the overhead of checking tiles is much smaller than "
              "the benefit of skipping inactive regions' (§3.2) — compare "
              "the sweep column against the unoptimized update times in "
              "fig4_ablation.\n");
  rep.finish();
  return 0;
}
