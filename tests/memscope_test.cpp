// MemScope: per-buffer memory registry round-trips, DeviceBuffer byte
// accounting (including the resize-smaller wrap class and moved-from
// destruction), the always-on device peak watermark, the /proc/self/status
// parser, memory drift against a hand-computed layout, and the bit-identity
// contract (memory accounting on/off must not change a single simulation
// bit).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/memscope.hpp"
#include "perfmodel/mem_model.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::DeviceOptions;

DeviceOptions memscope_options() {
  DeviceOptions o;
  o.obs.memscope = true;
  return o;
}

// ---- category classification ----------------------------------------------

TEST(MemScope, CategoryClassification) {
  EXPECT_STREQ(obs::mem_category("virus"), "voxel_fields");
  EXPECT_STREQ(obs::mem_category("epi_state"), "voxel_fields");
  EXPECT_STREQ(obs::mem_category("active_tiles"), "tile_metadata");
  EXPECT_STREQ(obs::mem_category("sweep_flags"), "tile_metadata");
  EXPECT_STREQ(obs::mem_category("stage_u64"), "halo_staging");
  EXPECT_STREQ(obs::mem_category("stats_dev"), "stats");
  EXPECT_STREQ(obs::mem_category("extrav"), "stats");
  EXPECT_STREQ(obs::mem_category("pgas.channels"), "pgas");
  EXPECT_STREQ(obs::mem_category("host.virus"), "host_grid");
}

// ---- registry round-trip ---------------------------------------------------

TEST(MemScope, RegistryAllocResizeFreeRoundTrip) {
  obs::MemScope ms;
  obs::MemSlot* a = ms.slot("a");
  obs::MemSlot* b = ms.slot("b");
  EXPECT_EQ(ms.slot("a"), a);  // find-or-create is stable

  ms.alloc(a, 100);
  ms.alloc(b, 50);
  EXPECT_EQ(ms.live_bytes(), 150u);
  EXPECT_EQ(ms.peak_live_bytes(), 150u);

  ms.resize(a, 100, 300);  // grow: +200
  EXPECT_EQ(a->live_bytes, 300u);
  EXPECT_EQ(a->peak_bytes, 300u);
  EXPECT_EQ(ms.live_bytes(), 350u);
  EXPECT_EQ(ms.peak_live_bytes(), 350u);

  ms.resize(a, 300, 40);  // shrink: must not wrap
  EXPECT_EQ(a->live_bytes, 40u);
  EXPECT_EQ(a->peak_bytes, 300u);  // watermark survives the shrink
  EXPECT_EQ(ms.live_bytes(), 90u);
  EXPECT_EQ(ms.peak_live_bytes(), 350u);

  ms.free(a, 40);
  ms.free(b, 50);
  EXPECT_EQ(ms.live_bytes(), 0u);
  EXPECT_EQ(ms.underflows(), 0u);

  const obs::MemReport rep = ms.report();
  ASSERT_EQ(rep.buffers.size(), 2u);
  EXPECT_EQ(rep.buffers[0].name, "a");  // sorted by name
  EXPECT_EQ(rep.buffers[1].name, "b");
  EXPECT_EQ(rep.registry_peak_bytes(), 300u + 50u);
  const auto cats = rep.categories();
  std::uint64_t cat_sum = 0;
  for (const auto& [cat, bytes] : cats) cat_sum += bytes;
  EXPECT_EQ(cat_sum, rep.registry_peak_bytes());
}

TEST(MemScope, FreeBelowZeroCountsUnderflowInsteadOfWrapping) {
  obs::MemScope ms;
  obs::MemSlot* a = ms.slot("a");
  ms.alloc(a, 10);
  ms.free(a, 25);  // accounting bug: must surface, not wrap
  EXPECT_EQ(ms.underflows(), 1u);
  EXPECT_EQ(a->live_bytes, 0u);
  EXPECT_EQ(ms.live_bytes(), 0u);
  EXPECT_LT(ms.live_bytes(), 1u << 20);  // nothing 2^64-ish anywhere
}

TEST(MemScope, GaugePeakOnlyRaises) {
  obs::MemScope ms;
  ms.gauge_peak("pgas.rpc_queue", 100);
  ms.gauge_peak("pgas.rpc_queue", 60);   // lower: no-op
  ms.gauge_peak("pgas.rpc_queue", 140);  // higher: +40
  const obs::MemReport rep = ms.report();
  ASSERT_EQ(rep.buffers.size(), 1u);
  EXPECT_EQ(rep.buffers[0].peak_bytes, 140u);
  EXPECT_EQ(rep.buffers[0].category, "pgas");
}

TEST(MemScope, MergeSumsSlotsByName) {
  obs::MemScope r0, r1;
  r0.alloc(r0.slot("virus"), 100);
  r0.alloc(r0.slot("chem"), 50);
  r1.alloc(r1.slot("virus"), 70);
  obs::MemReport all;
  obs::merge_mem_reports(all, r0.report());
  obs::merge_mem_reports(all, r1.report());
  EXPECT_EQ(all.live_bytes, 220u);
  EXPECT_EQ(all.peak_live_bytes, 220u);  // rank peaks sum
  ASSERT_EQ(all.buffers.size(), 2u);
  for (const obs::MemSlot& s : all.buffers) {
    if (s.name == "virus") {
      EXPECT_EQ(s.peak_bytes, 170u);
    }
    if (s.name == "chem") {
      EXPECT_EQ(s.peak_bytes, 50u);
    }
  }
  EXPECT_EQ(all.registry_peak_bytes(), 220u);
  // Merging owners with disjoint name sets must keep the report sorted:
  // the second owner's "apply_queue" sorts before both existing names.
  obs::MemScope r2;
  r2.alloc(r2.slot("apply_queue"), 10);
  obs::merge_mem_reports(all, r2.report());
  ASSERT_EQ(all.buffers.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      all.buffers.begin(), all.buffers.end(),
      [](const obs::MemSlot& a, const obs::MemSlot& b) {
        return a.name < b.name;
      }));
}

// ---- /proc/self/status parsing ---------------------------------------------

TEST(MemScope, ParseProcStatusFixture) {
  const char* fixture =
      "Name:\tsimcov\n"
      "Umask:\t0022\n"
      "VmPeak:\t  999999 kB\n"
      "VmHWM:\t   54321 kB\n"
      "VmRSS:\t   12345 kB\n"
      "Threads:\t5\n";
  obs::RssSample s;
  ASSERT_TRUE(obs::parse_proc_status(fixture, s));
  EXPECT_EQ(s.vm_rss_kb, 12345u);
  EXPECT_EQ(s.vm_hwm_kb, 54321u);
}

TEST(MemScope, ParseProcStatusMissingFields) {
  obs::RssSample s;
  EXPECT_FALSE(obs::parse_proc_status("Name:\tsimcov\nThreads:\t5\n", s));
  EXPECT_EQ(s.vm_rss_kb, 0u);
  // One of the two present still counts as found.
  EXPECT_TRUE(obs::parse_proc_status("VmRSS:\t 77 kB\n", s));
  EXPECT_EQ(s.vm_rss_kb, 77u);
  EXPECT_EQ(s.vm_hwm_kb, 0u);
  // A header with no digits is not a sample.
  EXPECT_FALSE(obs::parse_proc_status("VmRSS:\t kB\n", s));
}

TEST(MemScope, SampleRssReadsRealProcfs) {
  obs::RssSample s;
  ASSERT_TRUE(obs::sample_rss(s));  // Linux CI always has procfs
  EXPECT_GT(s.vm_rss_kb, 0u);
  EXPECT_GE(s.vm_hwm_kb, s.vm_rss_kb);
}

// ---- DeviceBuffer byte accounting ------------------------------------------

TEST(MemScope, DeviceBufferExactByteAccounting) {
  Device dev(0, memscope_options());
  ASSERT_NE(dev.memscope(), nullptr);
  {
    DeviceBuffer<float> a(dev, 100, 0.0f, "a");
    DeviceBuffer<std::uint8_t> b(dev, 64, 0, "b");
    EXPECT_EQ(dev.allocated_bytes(), 400u + 64u);
    EXPECT_EQ(dev.peak_allocated_bytes(), 464u);

    a.resize(150);  // grow
    EXPECT_EQ(dev.allocated_bytes(), 600u + 64u);
    EXPECT_EQ(dev.peak_allocated_bytes(), 664u);

    // The wrap class: resize-smaller must subtract the delta, not add a
    // wrapped size_t.
    a.resize(10);
    EXPECT_EQ(dev.allocated_bytes(), 40u + 64u);
    EXPECT_LT(dev.allocated_bytes(), 1u << 20);
    EXPECT_EQ(dev.peak_allocated_bytes(), 664u);  // watermark unchanged
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.peak_allocated_bytes(), 664u);
  EXPECT_EQ(dev.memscope()->underflows(), 0u);

  const obs::MemReport rep = dev.memscope()->report();
  EXPECT_EQ(rep.live_bytes, 0u);
  for (const obs::MemSlot& s : rep.buffers) {
    if (s.name == "a") {
      EXPECT_EQ(s.peak_bytes, 600u);
    }
    if (s.name == "b") {
      EXPECT_EQ(s.peak_bytes, 64u);
    }
  }
}

TEST(MemScope, DeviceBufferMoveDoesNotDoubleFree) {
  Device dev(0, memscope_options());
  {
    DeviceBuffer<std::uint32_t> a(dev, 32, 0, "a");
    EXPECT_EQ(dev.allocated_bytes(), 128u);
    DeviceBuffer<std::uint32_t> b(std::move(a));  // move-construct
    EXPECT_EQ(dev.allocated_bytes(), 128u);       // unchanged
    DeviceBuffer<std::uint32_t> c(dev, 16, 0, "c");
    EXPECT_EQ(dev.allocated_bytes(), 128u + 64u);
    c = std::move(b);  // move-assign frees c's 64 bytes, keeps a's 128
    EXPECT_EQ(dev.allocated_bytes(), 128u);
  }
  // Moved-from destructors must not subtract again.
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.memscope()->underflows(), 0u);
  EXPECT_EQ(dev.memscope()->live_bytes(), 0u);
}

TEST(MemScope, DevicePeakWatermarkTrackedEvenWithMemScopeOff) {
  Device dev(0);  // no options: MemScope off
  EXPECT_EQ(dev.memscope(), nullptr);
  {
    DeviceBuffer<double> a(dev, 100, 0.0, "a");
    {
      DeviceBuffer<double> b(dev, 50, 0.0, "b");
      EXPECT_EQ(dev.peak_allocated_bytes(), 1200u);
    }
    EXPECT_EQ(dev.allocated_bytes(), 800u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.peak_allocated_bytes(), 1200u);
  EXPECT_EQ(dev.stats().peak_allocated_bytes, 1200u);
}

// ---- memory drift rows ------------------------------------------------------

TEST(MemScope, DriftRowsShareArithmetic) {
  const std::map<std::string, std::uint64_t> measured{
      {"voxel_fields", 600}, {"stats", 400}};
  const std::map<std::string, double> modeled{
      {"voxel_fields", 500.0}, {"stats", 500.0}, {"pgas", 0.0}};
  const std::vector<obs::MemDriftRow> rows =
      obs::memory_drift_rows(measured, modeled);
  ASSERT_EQ(rows.size(), 3u);  // union of keys, sorted
  EXPECT_EQ(rows[0].category, "pgas");
  EXPECT_EQ(rows[1].category, "stats");
  EXPECT_EQ(rows[2].category, "voxel_fields");
  EXPECT_DOUBLE_EQ(rows[2].measured_share, 0.6);
  EXPECT_DOUBLE_EQ(rows[2].modeled_share, 0.5);
  EXPECT_DOUBLE_EQ(rows[2].divergence, 0.1);
  EXPECT_DOUBLE_EQ(rows[1].divergence, 0.4 - 0.5);
  EXPECT_DOUBLE_EQ(rows[0].measured_bytes, 0.0);
}

// ---- full runs: model vs registry, category invariant -----------------------

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

TEST(MemScope, GpuSingleRankRegistryMatchesHandComputedLayout) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions opt;
  opt.num_ranks = 1;
  opt.obs.memscope = true;
  const gpu::GpuRunResult r = gpu::run_gpu_sim(p, foi, opt);
  ASSERT_FALSE(r.memory.empty());

  // Hand-computed 48x48 single-rank layout, tile_side 8: a 6x6 tile grid
  // (2304 interior slots) plus one ghost row/column pair (2*48 + 2*48).
  const std::size_t layout_slots = 36 * 64 + 4 * 48;
  const auto cats = r.memory.categories();
  EXPECT_EQ(cats.at("voxel_fields"),
            layout_slots * perfmodel::kGpuVoxelFieldBytesPerSlot);
  EXPECT_EQ(cats.at("tile_metadata"),
            36u * perfmodel::kGpuTileMetaBytesPerTile);
  EXPECT_EQ(cats.at("halo_staging"),
            48u * perfmodel::kGpuHaloStagingBytesPerSlot);
  EXPECT_EQ(cats.at("stats"), perfmodel::kGpuStatsBytes);

  // The same numbers must come out of the memory model (this is what makes
  // the drift rows ~0 today and a savings report after tile pooling).
  ASSERT_FALSE(r.mem_modeled_by_category.empty());
  for (const auto& [cat, modeled] : r.mem_modeled_by_category) {
    EXPECT_EQ(static_cast<double>(cats.at(cat)), modeled) << cat;
  }

  // Single rank: no live faces, so no channel bytes anywhere.
  EXPECT_EQ(cats.count("pgas") ? cats.at("pgas") : 0u, 0u);
  EXPECT_EQ(r.memory.underflows, 0u);
}

TEST(MemScope, GpuMultiRankCategorySumsEqualRegistryTotal) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.obs.memscope = true;
  const gpu::GpuRunResult r = gpu::run_gpu_sim(p, foi, opt);
  ASSERT_FALSE(r.memory.empty());

  std::uint64_t cat_sum = 0;
  for (const auto& [cat, bytes] : r.memory.categories()) cat_sum += bytes;
  EXPECT_EQ(cat_sum, r.memory.registry_peak_bytes());
  std::uint64_t buf_sum = 0;
  for (const obs::MemSlot& s : r.memory.buffers) buf_sum += s.peak_bytes;
  EXPECT_EQ(buf_sum, r.memory.registry_peak_bytes());
  EXPECT_EQ(r.memory.underflows, 0u);

  // 4 ranks share halos, so the pgas category must be populated, and the
  // measured channel bytes must match the model exactly (13 u64 payload
  // channels per live-face slot).
  EXPECT_GT(r.memory.categories().at("pgas"), 0u);
  const auto it = r.mem_modeled_by_category.find("pgas");
  ASSERT_NE(it, r.mem_modeled_by_category.end());
  // Measured pgas = channels + the rpc-queue gauge; channels alone equal
  // the model, and this run performs no RPCs big enough to dominate, so
  // measured >= modeled with the difference being exactly the queue gauge.
  std::uint64_t queue_bytes = 0, channel_bytes = 0;
  for (const obs::MemSlot& s : r.memory.buffers) {
    if (s.name == "pgas.rpc_queue") queue_bytes = s.peak_bytes;
    if (s.name == "pgas.channels") channel_bytes = s.peak_bytes;
  }
  EXPECT_EQ(static_cast<double>(channel_bytes), it->second);
  EXPECT_EQ(r.memory.categories().at("pgas"), channel_bytes + queue_bytes);

  // The device watermark covers at least everything the registry attributes
  // to device-resident categories.
  EXPECT_GT(r.device_total.peak_allocated_bytes, 0u);
}

TEST(MemScope, CpuSingleRankRegistryMatchesHandComputedLayout) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  cpu::CpuSimOptions opt;
  opt.num_ranks = 1;
  opt.obs.memscope = true;
  const cpu::CpuRunResult r = cpu::run_cpu_sim(p, foi, opt);
  ASSERT_FALSE(r.memory.empty());

  // 10 byte grids over the padded volume: rows of (48+2) ghost-inclusive
  // columns pad to the cache-line stride 64 (util::pad_stride(50)), times
  // (48+2) rows; plus 2 bit grids of 64-bit words, 3200 / 64 = 50 each.
  const std::size_t padded = 64 * 50;
  const auto cats = r.memory.categories();
  EXPECT_EQ(cats.at("host_grid"),
            padded * perfmodel::kCpuGridBytesPerVoxel + 2 * 50 * 8);
  for (const auto& [cat, modeled] : r.mem_modeled_by_category) {
    EXPECT_EQ(static_cast<double>(cats.count(cat) ? cats.at(cat) : 0u),
              modeled)
        << cat;
  }
  EXPECT_EQ(r.memory.underflows, 0u);
}

// ---- bit-identity: accounting must not perturb the simulation ---------------

TEST(MemScope, GpuDigestsBitIdenticalMemScopeOnOff) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions off;
  off.num_ranks = 2;
  off.record_digests = true;
  gpu::GpuSimOptions on = off;
  on.obs.memscope = true;

  const gpu::GpuRunResult r_off = gpu::run_gpu_sim(p, foi, off);
  const gpu::GpuRunResult r_on = gpu::run_gpu_sim(p, foi, on);

  ASSERT_FALSE(r_off.digests.empty());
  EXPECT_EQ(r_off.digests, r_on.digests);
  EXPECT_EQ(r_off.device_total.global_read_bytes,
            r_on.device_total.global_read_bytes);
  EXPECT_EQ(r_off.device_total.global_write_bytes,
            r_on.device_total.global_write_bytes);
  EXPECT_EQ(r_off.device_total.atomic_ops, r_on.device_total.atomic_ops);
  EXPECT_EQ(r_off.cost.total_s, r_on.cost.total_s);
  // The watermark is identical too: it observes the same allocations.
  EXPECT_EQ(r_off.device_total.peak_allocated_bytes,
            r_on.device_total.peak_allocated_bytes);

  EXPECT_TRUE(r_off.memory.empty());
  EXPECT_FALSE(r_on.memory.empty());
}

TEST(MemScope, CpuDigestsBitIdenticalMemScopeOnOff) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  cpu::CpuSimOptions off;
  off.num_ranks = 2;
  off.record_digests = true;
  cpu::CpuSimOptions on = off;
  on.obs.memscope = true;

  const cpu::CpuRunResult r_off = cpu::run_cpu_sim(p, foi, off);
  const cpu::CpuRunResult r_on = cpu::run_cpu_sim(p, foi, on);

  ASSERT_FALSE(r_off.digests.empty());
  EXPECT_EQ(r_off.digests, r_on.digests);
  EXPECT_TRUE(r_off.memory.empty());
  EXPECT_FALSE(r_on.memory.empty());
}

}  // namespace
}  // namespace simcov
