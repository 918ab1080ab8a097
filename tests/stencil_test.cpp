// Vectorized concentrations sweep (core/stencil.hpp): the row kernels are
// bit-identical to the scalar rules loops, and both backends stay
// digest-equal to the scalar reference on odd shapes that exercise the
// padded tile / row strides (tile_stride > slots_per_tile on the GPU,
// pad_stride(w+2) > w+2 on the CPU) and the peeled edge voxels.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "core/rules.hpp"
#include "core/stencil.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/align.hpp"

namespace simcov {
namespace {

// Deterministic probe values covering the interesting regions of the
// clamp/flush rules: exact zeros, values below typical flush floors,
// values near and above the saturation clamp.
float probe_value(std::uint64_t i) {
  std::uint64_t x = i * 0x9E3779B97F4A7C15ull + 1;
  x ^= x >> 33;
  switch (i % 5) {
    case 0: return 0.0f;
    case 1: return 1e-7f;
    case 2: return 0.999f;
    case 3: return 1.5f * static_cast<float>(x % 1000) / 1000.0f;
    default: return static_cast<float>(x % 100000) / 100001.0f;
  }
}

EpiState probe_state(std::uint64_t i) {
  return static_cast<EpiState>(i % static_cast<std::uint64_t>(kNumEpiStates));
}

constexpr std::int32_t kRow = 37;  // odd, spans several vector widths

TEST(StencilRows, ProduceDecayRowMatchesScalarRules) {
  util::aligned_vector<float> field(kRow), out(kRow);
  util::aligned_vector<EpiState> epi(kRow);
  for (std::int32_t j = 0; j < kRow; ++j) {
    field[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j));
    epi[static_cast<std::size_t>(j)] = probe_state(static_cast<std::uint64_t>(j));
  }
  for (const bool is_virus : {true, false}) {
    stencil::produce_decay_row(field.data(), epi.data(), out.data(), kRow,
                               is_virus, 0.125, 0.05);
    for (std::int32_t j = 0; j < kRow; ++j) {
      const std::size_t i = static_cast<std::size_t>(j);
      const bool pr = is_virus ? rules::produces_virus(epi[i])
                               : rules::produces_chem(epi[i]);
      const float want = rules::produce_decay(field[i], pr, 0.125, 0.05);
      ASSERT_EQ(out[i], want) << "j=" << j << " is_virus=" << is_virus;
    }
  }
}

TEST(StencilRows, DiffuseRowMatchesScalarContractOrderSum) {
  // c has one extra element on each side (the row kernels read c[j-1] and
  // c[j+1]); ym/yp are indexed [0, n).
  util::aligned_vector<float> c(kRow + 2), ym(kRow), yp(kRow), out(kRow);
  for (std::int32_t j = 0; j < kRow + 2; ++j) {
    c[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 11);
  }
  for (std::int32_t j = 0; j < kRow; ++j) {
    ym[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 101);
    yp[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 211);
  }
  stencil::diffuse_row(c.data() + 1, ym.data(), yp.data(), out.data(), kRow,
                       4, 0.3, 1e-6);
  for (std::int32_t j = 0; j < kRow; ++j) {
    const std::size_t i = static_cast<std::size_t>(j);
    double sum = static_cast<double>(c[i]);       // -x
    sum += static_cast<double>(c[i + 2]);         // +x
    sum += static_cast<double>(ym[i]);            // -y
    sum += static_cast<double>(yp[i]);            // +y
    const float want = rules::diffuse(c[i + 1], sum, 4, 0.3, 1e-6);
    ASSERT_EQ(out[i], want) << "j=" << j;
  }
}

TEST(StencilRows, ZeroNeighbourRowIsExactIdentity) {
  // The caller contract: at a domain edge, pass the all-zero ghost row and
  // exclude it from nbr_count.  The result must equal the scalar gather
  // that skips the out-of-bounds side entirely.
  util::aligned_vector<float> c(kRow + 2), ym(kRow), out(kRow);
  const util::aligned_vector<float> zeros(kRow, 0.0f);
  for (std::int32_t j = 0; j < kRow + 2; ++j) {
    c[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 307);
  }
  for (std::int32_t j = 0; j < kRow; ++j) {
    ym[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 401);
  }
  stencil::diffuse_row(c.data() + 1, ym.data(), zeros.data(), out.data(),
                       kRow, 3, 0.3, 1e-6);
  for (std::int32_t j = 0; j < kRow; ++j) {
    const std::size_t i = static_cast<std::size_t>(j);
    double sum = static_cast<double>(c[i]);
    sum += static_cast<double>(c[i + 2]);
    sum += static_cast<double>(ym[i]);  // +y side skipped, count 3
    const float want = rules::diffuse(c[i + 1], sum, 3, 0.3, 1e-6);
    ASSERT_EQ(out[i], want) << "j=" << j;
  }
}

TEST(StencilRows, DiffuseRow3DMatchesScalarContractOrderSum) {
  util::aligned_vector<float> c(kRow + 2), ym(kRow), yp(kRow), zm(kRow),
      zp(kRow), out(kRow);
  for (std::int32_t j = 0; j < kRow + 2; ++j) {
    c[static_cast<std::size_t>(j)] = probe_value(static_cast<std::uint64_t>(j) + 503);
  }
  for (std::int32_t j = 0; j < kRow; ++j) {
    const auto u = static_cast<std::uint64_t>(j);
    ym[static_cast<std::size_t>(j)] = probe_value(u + 601);
    yp[static_cast<std::size_t>(j)] = probe_value(u + 701);
    zm[static_cast<std::size_t>(j)] = probe_value(u + 809);
    zp[static_cast<std::size_t>(j)] = probe_value(u + 907);
  }
  stencil::diffuse_row_3d(c.data() + 1, ym.data(), yp.data(), zm.data(),
                          zp.data(), out.data(), kRow, 6, 0.3, 1e-6);
  for (std::int32_t j = 0; j < kRow; ++j) {
    const std::size_t i = static_cast<std::size_t>(j);
    double sum = static_cast<double>(c[i]);
    sum += static_cast<double>(c[i + 2]);
    sum += static_cast<double>(ym[i]);
    sum += static_cast<double>(yp[i]);
    sum += static_cast<double>(zm[i]);
    sum += static_cast<double>(zp[i]);
    const float want = rules::diffuse(c[i + 1], sum, 6, 0.3, 1e-6);
    ASSERT_EQ(out[i], want) << "j=" << j;
  }
}

// ---------------------------------------------------------------------------
// End-to-end digest equality against the scalar reference on odd shapes
// ---------------------------------------------------------------------------

SimParams odd_params(int w, int h, int z, int tile) {
  SimParams p = SimParams::bench_fast();
  p.dim_x = w;
  p.dim_y = h;
  p.dim_z = z;
  p.tile_side = tile;
  if (p.tile_check_period > tile) p.tile_check_period = tile;
  p.num_steps = 60;
  p.num_foi = 3;
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  return p;
}

std::vector<std::uint64_t> reference_digests(const SimParams& p,
                                             const std::vector<VoxelId>& foi) {
  ReferenceSim ref(p, foi);
  std::vector<std::uint64_t> out;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    out.push_back(ref.state_digest());
  }
  return out;
}

std::vector<VoxelId> foi_for(const SimParams& p) {
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  return foi_uniform_random(g, p.num_foi, p.seed);
}

TEST(StencilSweep, GpuOddTilesDigestEqualToReference) {
  // tile 5 -> slots_per_tile 25, tile_stride 32: every tile carries stride
  // padding, and the 17x13 domain adds ragged edge tiles on both axes.
  const SimParams p = odd_params(17, 13, 1, 5);
  const auto want = reference_digests(p, foi_for(p));
  for (int ranks : {1, 2}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
    ASSERT_EQ(r.digests, want) << "ranks=" << ranks;
  }
}

TEST(StencilSweep, GpuTile7DigestEqualToReference) {
  // tile 7 -> slots_per_tile 49, tile_stride 64.
  const SimParams p = odd_params(33, 9, 1, 7);
  const auto want = reference_digests(p, foi_for(p));
  gpu::GpuSimOptions opt;
  opt.num_ranks = 2;
  opt.record_digests = true;
  const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(r.digests, want);
}

TEST(StencilSweep, CpuOddWidthDigestEqualToReference) {
  // w=17 -> padded row stride pad_stride(19)=32: rows carry pad columns,
  // and the odd width exercises the peeled global x-edge voxels.
  const SimParams p = odd_params(17, 13, 1, 4);
  const auto want = reference_digests(p, foi_for(p));
  for (int ranks : {1, 3}) {
    cpu::CpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
    ASSERT_EQ(r.digests, want) << "ranks=" << ranks;
  }
}

TEST(StencilSweep, Cpu3DOddGridDigestEqualToReference) {
  // 3D: global z edges read the spare all-zero row (no z ghost planes).
  SimParams p = odd_params(17, 13, 3, 4);
  p.num_steps = 40;
  const auto want = reference_digests(p, foi_for(p));
  cpu::CpuSimOptions opt;
  opt.num_ranks = 2;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(r.digests, want);
}

TEST(StencilSweep, GpuRowKernelsCleanUnderSchedulePermutation) {
  // KernelCheck permute mode re-executes every launch (including the new
  // field_produce_decay / field_diffuse / field_rezero row kernels) under
  // reversed and shuffled schedules and requires bit-identical buffers; a
  // violation throws at the end of the run.
  SimParams p = odd_params(17, 13, 1, 5);
  p.num_steps = 8;  // permutation triples every launch
  gpu::GpuSimOptions opt;
  opt.num_ranks = 2;
  opt.obs.kernel_check = true;
  opt.obs.permute = true;
  opt.record_digests = true;
  const auto checked = gpu::run_gpu_sim(p, foi_for(p), opt);
  gpu::GpuSimOptions plain;
  plain.num_ranks = 2;
  plain.record_digests = true;
  const auto base = gpu::run_gpu_sim(p, foi_for(p), plain);
  EXPECT_EQ(checked.digests, base.digests);
}

}  // namespace
}  // namespace simcov
