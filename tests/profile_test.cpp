// KernelProf: per-launch byte attribution, roofline math, cross-rank trace
// flow events, and the bit-identity contract (profiling on/off must not
// change a single simulation bit or DeviceStats counter).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/machine.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::DeviceOptions;
using gpusim::ThreadCtx;

DeviceOptions profiled_options() {
  DeviceOptions o;
  o.obs.profile = true;
  return o;
}

// ---- per-buffer byte attribution -------------------------------------------

TEST(KernelProf, SyntheticKernelHandComputedBytes) {
  Device dev(0, profiled_options());
  ASSERT_NE(dev.profiler(), nullptr);
  const std::size_t n = 256;
  DeviceBuffer<float> a(dev, n, 1.0f, "a");
  DeviceBuffer<std::uint64_t> b(dev, 4, 0, "b");

  dev.parallel_for({2, 128, "synth"}, [&](ThreadCtx& t) {
    auto va = t.global(a);
    auto vb = t.global(b);
    const std::size_t i = t.global_index();
    const float x = va.read(i);       // 4 bytes read from "a"
    va.write(i, x * 2.0f);            // 4 bytes written to "a"
    vb.atomic_add(i & 3u, 1);         // 1 atomic on "b"
  });

  std::vector<obs::LaunchRecord> recs = dev.profiler()->drain();
  ASSERT_EQ(recs.size(), 1u);
  const obs::LaunchRecord& r = recs[0];
  EXPECT_STREQ(r.kernel, "synth");
  EXPECT_EQ(r.grid_dim, 2u);
  EXPECT_EQ(r.block_dim, 128u);
  EXPECT_EQ(r.threads, 256u);
  EXPECT_GT(r.end_ns, 0u);
  EXPECT_GE(r.end_ns, r.start_ns);

  // Hand-computed totals: 256 threads x 4B read + 4B write on "a", one
  // atomic each on "b".
  EXPECT_EQ(r.read_bytes, n * sizeof(float));
  EXPECT_EQ(r.write_bytes, n * sizeof(float));
  EXPECT_EQ(r.atomic_ops, n);

  ASSERT_EQ(r.buffers.size(), 2u);
  const auto& [name_a, traffic_a] =
      r.buffers[0].first == "a" ? r.buffers[0] : r.buffers[1];
  const auto& [name_b, traffic_b] =
      r.buffers[0].first == "b" ? r.buffers[0] : r.buffers[1];
  EXPECT_EQ(name_a, "a");
  EXPECT_EQ(traffic_a.read_bytes, n * sizeof(float));
  EXPECT_EQ(traffic_a.write_bytes, n * sizeof(float));
  EXPECT_EQ(traffic_a.atomic_ops, 0u);
  EXPECT_EQ(name_b, "b");
  EXPECT_EQ(traffic_b.read_bytes, 0u);
  EXPECT_EQ(traffic_b.write_bytes, 0u);
  EXPECT_EQ(traffic_b.atomic_ops, n);

  // End-of-launch folding keeps the DeviceStats aggregates identical to an
  // unprofiled run.
  EXPECT_EQ(dev.stats().global_read_bytes, n * sizeof(float));
  EXPECT_EQ(dev.stats().global_write_bytes, n * sizeof(float));
  EXPECT_EQ(dev.stats().atomic_ops, n);
  EXPECT_GT(dev.profiler()->total_binds(), 0u);
}

TEST(KernelProf, OffByDefaultAndRecordsNothing) {
  Device dev(0);
  EXPECT_EQ(dev.profiler(), nullptr);
  DeviceBuffer<float> a(dev, 16, 0.0f, "a");
  dev.parallel_for({1, 16, "k"}, [&](ThreadCtx& t) {
    t.global(a).write(t.global_index(), 1.0f);
  });
  EXPECT_EQ(dev.stats().global_write_bytes, 16u * sizeof(float));
}

// ---- roofline math against a fixed MachineSpec ------------------------------

TEST(KernelProf, RooflineRowsAgainstFixedMachineSpec) {
  // One kernel in one phase: 2 launches, 2 ms wall, 2 MB moved, 4000
  // thread work-quanta, modeled at 1.5 ms.  Phase totals double each, so
  // every share is exactly 0.5.
  obs::KernelStats ks;
  ks.phase = "t_cells";
  ks.kernel = "k_synth";
  ks.launches = 2;
  ks.wall_ns = 2'000'000;
  ks.threads = 4'000;
  ks.read_bytes = 1'500'000;
  ks.write_bytes = 500'000;
  ks.modeled_s = 0.0015;

  const std::map<std::string, double> measured{{"t_cells", 0.004}};
  const std::map<std::string, double> modeled{{"t_cells", 0.003}};
  const perfmodel::MachineSpec machine =
      perfmodel::MachineSpec::perlmutter_like();

  const std::vector<obs::KernelDriftRow> rows =
      obs::kernel_drift_rows({ks}, measured, modeled, machine);
  ASSERT_EQ(rows.size(), 2u);  // the kernel + the <host> remainder

  const obs::KernelDriftRow& k = rows[0];
  EXPECT_EQ(k.phase, "t_cells");
  EXPECT_EQ(k.kernel, "k_synth");
  EXPECT_EQ(k.launches, 2u);
  EXPECT_DOUBLE_EQ(k.measured_s, 0.002);
  EXPECT_DOUBLE_EQ(k.measured_share, 0.5);
  EXPECT_DOUBLE_EQ(k.modeled_s, 0.0015);
  EXPECT_DOUBLE_EQ(k.modeled_share, 0.5);
  EXPECT_DOUBLE_EQ(k.divergence, 0.0);
  EXPECT_DOUBLE_EQ(k.bytes, 2e6);
  // 2 MB in 2 ms = 1e9 B/s = 1 GB/s.
  EXPECT_DOUBLE_EQ(k.achieved_gbps, 1.0);
  // Peak global bandwidth is 1/global_byte_s; perlmutter_like models
  // 1.6e-12 s/B = 625 GB/s, so utilization is 1/625.
  const double peak_gbps = 1.0 / machine.gpu.global_byte_s / 1e9;
  EXPECT_NEAR(peak_gbps, 625.0, 1e-9);
  EXPECT_NEAR(k.roofline_util, 1.0 / 625.0, 1e-12);
  EXPECT_DOUBLE_EQ(k.arithmetic_intensity, 4'000.0 / 2e6);

  const obs::KernelDriftRow& host = rows[1];
  EXPECT_EQ(host.kernel, "<host>");
  EXPECT_DOUBLE_EQ(host.measured_s, 0.002);
  EXPECT_DOUBLE_EQ(host.modeled_s, 0.0015);
  EXPECT_DOUBLE_EQ(host.measured_share, 0.5);
  EXPECT_DOUBLE_EQ(host.modeled_share, 0.5);
}

TEST(KernelProf, RooflineRowsGuardZeroPhaseTotals) {
  obs::KernelStats ks;
  ks.phase = "halo";
  ks.kernel = "halo_pack";
  ks.launches = 1;
  ks.wall_ns = 1'000'000;
  ks.read_bytes = 1'000;
  // No measured or modeled phase totals at all: shares must come out 0,
  // not inf/nan.
  const std::vector<obs::KernelDriftRow> rows = obs::kernel_drift_rows(
      {ks}, {}, {}, perfmodel::MachineSpec::perlmutter_like());
  ASSERT_GE(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].measured_share, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].modeled_share, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].divergence, 0.0);
}

// ---- cross-rank flow events -------------------------------------------------

struct FlowEvent {
  std::string ph;
  std::uint64_t id = 0;
  int tid = -1;
};

/// Extracts the flow events ("cat":"flow") from a Chrome-trace JSON string.
/// Flow events are flat objects (no nested braces), so the enclosing object
/// of each match can be found with plain brace scans.
std::vector<FlowEvent> extract_flow_events(const std::string& json) {
  std::vector<FlowEvent> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"cat\":\"flow\"", pos)) != std::string::npos) {
    const std::size_t open = json.rfind('{', pos);
    const std::size_t close = json.find('}', pos);
    EXPECT_NE(open, std::string::npos);
    EXPECT_NE(close, std::string::npos);
    const std::string obj = json.substr(open, close - open + 1);
    FlowEvent ev;
    const auto field = [&obj](const char* key) -> std::string {
      const std::size_t k = obj.find(key);
      EXPECT_NE(k, std::string::npos) << key << " missing in " << obj;
      std::size_t v = obj.find(':', k) + 1;
      std::size_t e = v;
      while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
      return obj.substr(v, e - v);
    };
    std::string ph = field("\"ph\"");
    // Strip quotes from the string-valued ph field.
    ph.erase(std::remove(ph.begin(), ph.end(), '"'), ph.end());
    ev.ph = ph;
    ev.id = std::stoull(field("\"id\""));
    ev.tid = std::stoi(field("\"tid\""));
    out.push_back(ev);
    pos = close;
  }
  return out;
}

TEST(KernelProf, FlowEventsLinkPutToApplyAcrossRanks) {
  obs::tracer().enable("");
  {
    pgas::Runtime rt(2);
    rt.run([&](pgas::Rank& rank) {
      constexpr int kChan = 3;
      rank.register_channel(kChan, 8);
      rank.barrier();  // every rank's channel exists before any put lands
      if (rank.id() == 0) {
        const std::uint64_t payload = 0x1234;
        rank.put(1, kChan,
                 std::as_bytes(std::span<const std::uint64_t>(&payload, 1)));
      }
      rank.barrier();
      if (rank.id() == 1) {
        const auto view = rank.channel(kChan);
        EXPECT_EQ(view.size(), 8u);
      }
      rank.barrier();
    });
  }
  const std::string json = obs::tracer().to_json();
  obs::tracer().disable();

  const std::vector<FlowEvent> flows = extract_flow_events(json);
  std::vector<FlowEvent> starts, finishes;
  for (const FlowEvent& f : flows) {
    if (f.ph == "s") starts.push_back(f);
    if (f.ph == "f") finishes.push_back(f);
  }
  ASSERT_EQ(starts.size(), 1u);   // one put
  ASSERT_EQ(finishes.size(), 1u);  // one apply
  // Same flow id links them; the start sits on the source rank's track and
  // the finish on the destination rank's.
  EXPECT_EQ(starts[0].id, finishes[0].id);
  EXPECT_EQ(starts[0].tid, 0);
  EXPECT_EQ(finishes[0].tid, 1);
  // The linked spans themselves are present.
  EXPECT_NE(json.find("\"name\":\"put\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply\""), std::string::npos);
}

// ---- bit-identity: profiling must not perturb the simulation ----------------

SimParams small_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 40;
  p.num_foi = 3;
  p.seed = 1234;
  p.tcell_initial_delay = 10;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

TEST(KernelProf, DigestsAndDeviceStatsBitIdenticalProfilingOnOff) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions off;
  off.num_ranks = 2;
  off.record_digests = true;
  gpu::GpuSimOptions on = off;
  on.obs.profile = true;

  const gpu::GpuRunResult r_off = gpu::run_gpu_sim(p, foi, off);
  const gpu::GpuRunResult r_on = gpu::run_gpu_sim(p, foi, on);

  ASSERT_FALSE(r_off.digests.empty());
  EXPECT_EQ(r_off.digests, r_on.digests);

  // Counter folding: the aggregates (and therefore modeled seconds) are
  // bit-identical, not merely close.
  EXPECT_EQ(r_off.device_total.kernel_launches,
            r_on.device_total.kernel_launches);
  EXPECT_EQ(r_off.device_total.threads_executed,
            r_on.device_total.threads_executed);
  EXPECT_EQ(r_off.device_total.global_read_bytes,
            r_on.device_total.global_read_bytes);
  EXPECT_EQ(r_off.device_total.global_write_bytes,
            r_on.device_total.global_write_bytes);
  EXPECT_EQ(r_off.device_total.atomic_ops, r_on.device_total.atomic_ops);
  EXPECT_EQ(r_off.cost.total_s, r_on.cost.total_s);

  EXPECT_TRUE(r_off.kernel_profile.empty());
  EXPECT_FALSE(r_on.kernel_profile.empty());
  EXPECT_GT(r_on.prof_binds, 0u);

  // The profiled run covers every named kernel and sums its per-phase wall
  // ns consistently (kernel wall <= phase measured would need the PhaseClock;
  // here we check the aggregates are self-consistent instead).
  std::uint64_t total_launches = 0;
  for (const obs::KernelStats& k : r_on.kernel_profile) {
    EXPECT_FALSE(k.phase.empty());
    EXPECT_FALSE(k.kernel.empty());
    EXPECT_GT(k.launches, 0u);
    total_launches += k.launches;
  }
  EXPECT_EQ(total_launches, r_on.device_total.kernel_launches);
}

// The gpu.prof.* step series count each step's phase launches only: summed
// over ranks and steps they equal kernel_profile over every phase but the
// setup launches initialize() drains before step 0.
TEST(KernelProf, StepSeriesCountStepPhasesOnly) {
  SimParams p = small_params();
  p.num_steps = 20;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  gpu::GpuSimOptions opt;
  opt.num_ranks = 2;
  opt.obs.profile = true;

  obs::metrics().enable("");
  const gpu::GpuRunResult r = gpu::run_gpu_sim(p, foi, opt);
  std::istringstream csv(obs::metrics().to_csv());
  obs::metrics().disable();

  std::map<std::string, double> series;  // name -> sum over ranks and steps
  std::size_t launch_samples = 0;
  for (std::string line; std::getline(csv, line);) {
    if (line.rfind("series,gpu.prof.", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(',', 7) - 7);
    series[name] += std::stod(line.substr(line.rfind(',') + 1));
    if (name == "gpu.prof.launches") ++launch_samples;
  }
  std::uint64_t setup = 0, launches = 0, wall_ns = 0, bytes = 0;
  for (const obs::KernelStats& k : r.kernel_profile) {
    if (k.phase == "setup") {
      setup += k.launches;
      continue;
    }
    launches += k.launches;
    wall_ns += k.wall_ns;
    bytes += k.read_bytes + k.write_bytes;
  }
  EXPECT_GT(setup, 0u);
  EXPECT_EQ(launch_samples, 2u * 20u);
  EXPECT_EQ(series["gpu.prof.launches"], static_cast<double>(launches));
  EXPECT_EQ(series["gpu.prof.kernel_ns"], static_cast<double>(wall_ns));
  EXPECT_EQ(series["gpu.prof.bytes"], static_cast<double>(bytes));
}

// Profiling composes with KernelCheck schedule permutation: replayed
// launches must not double-count slot counters.
TEST(KernelProf, ComposesWithPermutedKernelCheck) {
  const SimParams p = small_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.num_ranks = 2;
  plain.record_digests = true;
  plain.obs.profile = true;

  gpu::GpuSimOptions checked = plain;
  checked.obs.kernel_check = true;
  checked.obs.permute = true;

  const gpu::GpuRunResult r_plain = gpu::run_gpu_sim(p, foi, plain);
  const gpu::GpuRunResult r_checked = gpu::run_gpu_sim(p, foi, checked);

  EXPECT_EQ(r_plain.digests, r_checked.digests);
  EXPECT_EQ(r_plain.device_total.global_read_bytes,
            r_checked.device_total.global_read_bytes);
  EXPECT_EQ(r_plain.device_total.global_write_bytes,
            r_checked.device_total.global_write_bytes);
  EXPECT_EQ(r_plain.device_total.atomic_ops,
            r_checked.device_total.atomic_ops);
}

}  // namespace
}  // namespace simcov
