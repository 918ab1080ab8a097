// Backend-specific behaviour: statistics consistency, communication and
// device counters, variant effects, and misuse rejection for both parallel
// implementations plus the harness wrappers.

#include <gtest/gtest.h>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "harness/experiment.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

SimParams small() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 100;
  p.num_foi = 3;
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  return p;
}

std::vector<VoxelId> foi_for(const SimParams& p) {
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  return foi_uniform_random(g, p.num_foi, p.seed);
}

ReferenceSim run_reference(const SimParams& p) {
  ReferenceSim ref(p, foi_for(p));
  ref.run(p.num_steps);
  return ref;
}

void expect_history_matches(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Integer statistics are exact; float totals are summed in different
    // orders across backends, so compare with a tight relative tolerance.
    ASSERT_EQ(a[i].epi_counts, b[i].epi_counts) << "step " << i;
    ASSERT_EQ(a[i].tcells_tissue, b[i].tcells_tissue) << "step " << i;
    ASSERT_EQ(a[i].extravasated, b[i].extravasated) << "step " << i;
    ASSERT_NEAR(a[i].virus_total, b[i].virus_total,
                1e-9 * (1.0 + a[i].virus_total))
        << "step " << i;
    ASSERT_NEAR(a[i].chem_total, b[i].chem_total,
                1e-9 * (1.0 + a[i].chem_total))
        << "step " << i;
  }
}

// ---------------------------------------------------------------------------
// SIMCoV-CPU
// ---------------------------------------------------------------------------

TEST(CpuSim, HistoryMatchesReference) {
  const SimParams p = small();
  const auto ref = run_reference(p);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  expect_history_matches(ref.history(), r.history);
}

TEST(CpuSim, CrossBoundaryTrafficHappens) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_GT(r.comm_total().rpcs_sent, 0u)
      << "no T cell ever crossed a rank boundary — "
         "the test configuration is too tame";
  EXPECT_GT(r.comm_total().put_bytes, 0u);  // concentration halos
  EXPECT_GT(r.cost.total_s, 0.0);
}

TEST(CpuSim, RunToRunReproducible) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto a = cpu::run_cpu_sim(p, foi_for(p), opt);
  const auto b = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(a.digests, b.digests);
  expect_history_matches(a.history, b.history);
}

TEST(CpuSim, SingleRankNeedsNoCommunication) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 1;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(r.comm_total().rpcs_sent, 0u);
  EXPECT_EQ(r.comm_total().put_bytes, 0u);
}

TEST(CpuSim, Runs3DAndMatchesReference) {
  SimParams p = small();
  p.dim_x = 24;
  p.dim_y = 24;
  p.dim_z = 4;
  p.num_steps = 80;
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(g, 3, p.seed);
  ReferenceSim ref(p, foi);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }
  for (int ranks : {1, 4, 6}) {
    cpu::CpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = cpu::run_cpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests, ref_digests) << "ranks=" << ranks;
  }
}

TEST(CpuSim, EmptyVoxelsRespected) {
  SimParams p = small();
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  std::vector<VoxelId> empties;
  for (std::int32_t y = 0; y < p.dim_y; ++y) {
    empties.push_back(g.to_id({24, y, 0}));
  }
  ReferenceSim ref(p, foi_for(p), empties);
  ref.run(p.num_steps);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt, empties);
  EXPECT_EQ(r.digests.back(), ref.state_digest());
}

// ---------------------------------------------------------------------------
// SIMCoV-GPU
// ---------------------------------------------------------------------------

TEST(GpuSim, HistoryMatchesReference) {
  const SimParams p = small();
  const auto ref = run_reference(p);
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
  expect_history_matches(ref.history(), r.history);
}

TEST(GpuSim, DeviceCountersPopulated) {
  const SimParams p = small();
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
  EXPECT_GT(r.device_total.kernel_launches, 0u);
  EXPECT_GT(r.device_total.global_read_bytes, 0u);
  EXPECT_GT(r.device_total.threads_executed, 0u);
  EXPECT_GT(r.comm_total().put_bytes, 0u);  // halo waves
  EXPECT_GT(r.cost.total_s, 0.0);
}

TEST(GpuSim, TilingSkipsInactiveWork) {
  // On a sparse simulation the tiling variant must execute far fewer
  // threads than the unoptimized full-sweep variant.
  SimParams p = small();
  p.dim_x = 128;
  p.dim_y = 128;
  p.num_foi = 1;
  p.num_steps = 40;
  p.tile_side = 4;               // many tiles, small always-active border
  p.tile_check_period = 4;
  p.tcell_initial_delay = 1000;  // no T cells
  p.min_virus = 1e-3;            // tight floors keep the fields localized
  p.min_chem = 1e-3;
  gpu::GpuSimOptions tiled;
  tiled.num_ranks = 1;
  tiled.variant = gpu::GpuVariant::memory_tiling_only();
  gpu::GpuSimOptions full;
  full.num_ranks = 1;
  full.variant = gpu::GpuVariant::unoptimized();
  const auto rt = gpu::run_gpu_sim(p, foi_for(p), tiled);
  const auto rf = gpu::run_gpu_sim(p, foi_for(p), full);
  EXPECT_LT(rt.device_total.threads_executed,
            rf.device_total.threads_executed / 2);
  expect_history_matches(rt.history, rf.history);
}

TEST(GpuSim, FastReductionSlashesAtomics) {
  const SimParams p = small();
  gpu::GpuSimOptions tree;
  tree.num_ranks = 2;
  tree.variant = gpu::GpuVariant::fast_reduction_only();
  gpu::GpuSimOptions atomic;
  atomic.num_ranks = 2;
  atomic.variant = gpu::GpuVariant::unoptimized();
  const auto rt = gpu::run_gpu_sim(p, foi_for(p), tree);
  const auto ra = gpu::run_gpu_sim(p, foi_for(p), atomic);
  EXPECT_LT(rt.device_total.atomic_ops, ra.device_total.atomic_ops / 10);
}

TEST(GpuSim, VariantNames) {
  EXPECT_EQ(gpu::GpuVariant::unoptimized().name(), "Unoptimized");
  EXPECT_EQ(gpu::GpuVariant::fast_reduction_only().name(), "Fast Reduction");
  EXPECT_EQ(gpu::GpuVariant::memory_tiling_only().name(), "Memory Tiling");
  EXPECT_EQ(gpu::GpuVariant::combined().name(), "Combined");
}

TEST(GpuSim, Rejects3D) {
  SimParams p = small();
  p.dim_z = 2;
  gpu::GpuSimOptions opt;
  opt.num_ranks = 2;
  EXPECT_THROW(gpu::run_gpu_sim(p, {}, opt), Error);
}

TEST(GpuSim, RunToRunReproducible) {
  const SimParams p = small();
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto a = gpu::run_gpu_sim(p, foi_for(p), opt);
  const auto b = gpu::run_gpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(a.digests, b.digests);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

TEST(Harness, ResolveFoiDeterministic) {
  harness::RunSpec spec;
  spec.params = small();
  const auto a = spec.resolve_foi();
  const auto b = spec.resolve_foi();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), static_cast<std::size_t>(spec.params.num_foi));
  spec.foi = {1, 2, 3};
  EXPECT_EQ(spec.resolve_foi().size(), 3u);
}

TEST(Harness, BackendsAgreeThroughWrappers) {
  harness::RunSpec spec;
  spec.params = small();
  spec.params.num_steps = 60;
  const auto ref = harness::run_reference(spec);
  const auto c = harness::run_cpu(spec, 4);
  const auto g = harness::run_gpu(spec, 4);
  expect_history_matches(ref.history, c.history);
  expect_history_matches(ref.history, g.history);
  EXPECT_GT(c.cost.total_s, 0.0);
  EXPECT_GT(g.cost.total_s, 0.0);
  EXPECT_DOUBLE_EQ(harness::speedup(c, g),
                   c.cost.total_s / g.cost.total_s);
}

TEST(Harness, CpusForGpusMatchesPaperRatio) {
  EXPECT_EQ(harness::cpus_for_gpus(4), 128);
  EXPECT_EQ(harness::cpus_for_gpus(64), 2048);
}

}  // namespace
}  // namespace simcov
