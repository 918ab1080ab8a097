// Virtual GPU: kernel execution semantics (grid/block/thread indexing,
// shared-memory phases, atomics), the host/device access discipline, and
// event counting — the counters drive the performance model, so their
// exactness is load-bearing.  The launch-equivalence tests pin the
// canonical launch loop, its KernelCheck replay loop and launch-bound
// buffer arguments to the same counts, bytes and results.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "gpusim/gpusim.hpp"

namespace simcov::gpusim {
namespace {

TEST(GpuSim, ParallelForCoversEveryThreadOnce) {
  Device dev(0);
  const std::size_t n = 1000;
  DeviceBuffer<std::uint32_t> buf(dev, n, 0);
  dev.parallel_for({8, 128}, [&](ThreadCtx& t) {
    if (t.global_index() >= n) return;
    auto v = t.global(buf);
    v.write(t.global_index(), static_cast<std::uint32_t>(t.global_index()));
  });
  std::vector<std::uint32_t> host(n);
  buf.copy_to_host(host);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(host[i], i);
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().threads_executed, 8u * 128u);
  EXPECT_EQ(dev.stats().blocks_executed, 8u);
}

TEST(GpuSim, ThreadCtxIndexing) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> blocks(dev, 64, 0);
  dev.parallel_for({4, 16}, [&](ThreadCtx& t) {
    EXPECT_EQ(t.global_index(),
              static_cast<std::uint64_t>(t.block_idx()) * t.block_dim() +
                  t.thread_idx());
    EXPECT_EQ(t.grid_size(), 64u);
    auto b = t.global(blocks);
    b.write(t.global_index(), t.block_idx());
  });
  std::vector<std::uint32_t> host(64);
  blocks.copy_to_host(host);
  EXPECT_EQ(host[0], 0u);
  EXPECT_EQ(host[17], 1u);
  EXPECT_EQ(host[63], 3u);
}

TEST(GpuSim, GlobalTrafficIsCounted) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 100, 1.0f);
  const auto before = dev.stats();
  dev.parallel_for({1, 100}, [&](ThreadCtx& t) {
    auto v = t.global(buf);
    const float x = v.read(t.global_index());
    v.write(t.global_index(), x * 2.0f);
  });
  const auto d = dev.stats().since(before);
  EXPECT_EQ(d.global_read_bytes, 100u * sizeof(float));
  EXPECT_EQ(d.global_write_bytes, 100u * sizeof(float));
  EXPECT_EQ(d.atomic_ops, 0u);
}

TEST(GpuSim, AtomicsReturnOldValueAndCount) {
  Device dev(0);
  DeviceBuffer<std::uint64_t> acc(dev, 1, 0);
  dev.parallel_for({2, 50}, [&](ThreadCtx& t) {
    auto v = t.global(acc);
    v.atomic_add(0, 1);
  });
  std::vector<std::uint64_t> host(1);
  acc.copy_to_host(host);
  EXPECT_EQ(host[0], 100u);
  EXPECT_EQ(dev.stats().atomic_ops, 100u);

  DeviceBuffer<std::uint64_t> mx(dev, 1, 5);
  dev.parallel_for({1, 1}, [&](ThreadCtx& t) {
    auto v = t.global(mx);
    EXPECT_EQ(v.atomic_max(0, 3), 5u);  // old value; no change
    EXPECT_EQ(v.atomic_max(0, 9), 5u);  // old value; updated
    EXPECT_EQ(v.read(0), 9u);
  });
}

TEST(GpuSim, SharedMemoryTreeReductionMatchesSerial) {
  Device dev(0);
  const std::size_t n = 4096;
  DeviceBuffer<float> data(dev, n);
  std::vector<float> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = static_cast<float>(i % 17) * 0.25f;
  data.copy_from_host(host);
  DeviceBuffer<double> out(dev, 1, 0.0);

  const std::uint32_t bd = 64, blocks = 8;
  dev.launch_blocks({blocks, bd}, [&](BlockCtx& blk) {
    auto sh = blk.shared<double>(bd);
    blk.for_each_thread([&](std::uint32_t tid) {
      auto v = blk.global(data);
      double acc = 0.0;
      for (std::size_t i = blk.block_idx() * bd + tid; i < n;
           i += static_cast<std::size_t>(blocks) * bd) {
        acc += static_cast<double>(v.read(i));
      }
      sh[tid] = acc;
    });
    for (std::uint32_t off = bd / 2; off > 0; off >>= 1) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid < off) sh[tid] += sh[tid + off];
      });
    }
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) blk.global(out).atomic_add(0, sh[0]);
    });
  });
  std::vector<double> result(1);
  out.copy_to_host(result);
  double expect = 0.0;
  for (float f : host) expect += static_cast<double>(f);
  EXPECT_NEAR(result[0], expect, 1e-9);
  // One atomic per block, not per element (the §3.3 contrast).
  EXPECT_EQ(dev.stats().atomic_ops, static_cast<std::uint64_t>(blocks));
}

TEST(GpuSim, SharedMemoryIsZeroInitializedPerBlock) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> out(dev, 4, 77);
  dev.launch_blocks({4, 8}, [&](BlockCtx& blk) {
    auto sh = blk.shared<std::uint32_t>(8);
    blk.for_each_thread([&](std::uint32_t tid) { sh[tid] += tid; });
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) {
        std::uint32_t sum = 0;
        for (std::uint32_t i = 0; i < 8; ++i) sum += sh[i];
        blk.global(out).write(blk.block_idx(), sum);
      }
    });
  });
  std::vector<std::uint32_t> host(4);
  out.copy_to_host(host);
  for (auto v : host) EXPECT_EQ(v, 28u);  // 0+..+7, no carry-over
}

TEST(GpuSim, HostAccessDuringKernelRejected) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 8, 0.0f);
  std::vector<float> host(8);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx&) { buf.copy_to_host(host); }),
               Error);
  // The device recovers: the guard releases the kernel flag.
  EXPECT_FALSE(dev.kernel_active());
  buf.copy_to_host(host);
}

TEST(GpuSim, NestedLaunchRejected) {
  Device dev(0);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx&) {
                                  dev.parallel_for({1, 1}, [](ThreadCtx&) {});
                                }),
               Error);
  EXPECT_FALSE(dev.kernel_active());
}

TEST(GpuSim, ForeignDeviceBufferRejected) {
  Device a(0), b(1);
  DeviceBuffer<float> on_b(b, 4, 0.0f);
  EXPECT_THROW(a.parallel_for({1, 1},
                              [&](ThreadCtx& t) { (void)t.global(on_b); }),
               Error);
}

TEST(GpuSim, OutOfBoundsAccessRejected) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 4, 0.0f);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx& t) {
                                  (void)t.global(buf).read(4);
                                }),
               Error);
}

TEST(GpuSim, LaunchConfigValidated) {
  Device dev(0);
  EXPECT_THROW(dev.parallel_for({0, 8}, [](ThreadCtx&) {}), Error);
  EXPECT_THROW(dev.parallel_for({1, 2048}, [](ThreadCtx&) {}), Error);
}

TEST(GpuSim, SharedMemoryCapacityEnforced) {
  Device dev(0);
  EXPECT_THROW(dev.launch_blocks({1, 1},
                                 [&](BlockCtx& blk) {
                                   blk.shared<double>(170 * 1024 / 8);
                                 }),
               Error);
}

TEST(GpuSim, CopyBoundsChecked) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 4, 0.0f);
  std::vector<float> five(5);
  EXPECT_THROW(buf.copy_from_host(five), Error);
  EXPECT_THROW(buf.copy_to_host(five), Error);
}

TEST(GpuSim, CopiesCountH2DAndD2H) {
  Device dev(0);
  DeviceBuffer<double> buf(dev, 10, 0.0);
  std::vector<double> host(10, 2.5);
  buf.copy_from_host(host);
  buf.copy_to_host(host);
  EXPECT_EQ(dev.stats().h2d_bytes, 80u);
  EXPECT_EQ(dev.stats().d2h_bytes, 80u);
}

TEST(GpuSim, FillSetsValuesAndCountsWrites) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> buf(dev, 6, 1);
  buf.fill(9);
  std::vector<std::uint32_t> host(6);
  buf.copy_to_host(host);
  for (auto v : host) EXPECT_EQ(v, 9u);
  EXPECT_EQ(dev.stats().global_write_bytes, 24u);
}

TEST(GpuSim, AllocationTracking) {
  Device dev(0);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer<double> a(dev, 100);
    EXPECT_EQ(dev.allocated_bytes(), 800u);
    DeviceBuffer<double> b = std::move(a);
    EXPECT_EQ(dev.allocated_bytes(), 800u);  // move does not double-count
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

// ---- launch equivalence ----------------------------------------------------

/// Everything a launch sequence leaves behind that must not depend on the
/// checker mode, the profiler or how the kernels bind their buffers.
struct LaunchOutcome {
  DeviceStats stats;
  std::vector<std::uint32_t> out, hist, sums, total;
  /// Per-buffer traffic summed over the profiled launches (profile on).
  std::map<std::string, std::array<std::uint64_t, 3>> prof;
};

void expect_same_stats(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
  EXPECT_EQ(a.threads_executed, b.threads_executed);
  EXPECT_EQ(a.global_read_bytes, b.global_read_bytes);
  EXPECT_EQ(a.global_write_bytes, b.global_write_bytes);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.shared_bytes_allocated, b.shared_bytes_allocated);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.peak_allocated_bytes, b.peak_allocated_bytes);
}

/// A ragged parallel_for (1024 threads over 1000 items: the last block's
/// tail returns early) and a shared-memory tree reduction, with buffers
/// bound as launch arguments or, when `per_thread_bind`, from inside every
/// thread through ThreadCtx/BlockCtx::global.
LaunchOutcome run_launch_pair(const obs::Config& cfg, bool per_thread_bind) {
  constexpr std::uint32_t kItems = 1000, kBlocks = 4, kBlock = 64;
  Device dev(0, {.obs = cfg});
  std::vector<std::uint32_t> host(kItems);
  for (std::uint32_t i = 0; i < kItems; ++i) host[i] = 3 * i + 1;
  DeviceBuffer<std::uint32_t> in(dev, kItems, 0, "in");
  DeviceBuffer<std::uint32_t> out(dev, kItems, 0, "out");
  DeviceBuffer<std::uint32_t> hist(dev, 4, 0, "hist");
  DeviceBuffer<std::uint32_t> sums(dev, kBlocks, 0, "sums");
  DeviceBuffer<std::uint32_t> total(dev, 1, 0, "total");
  in.copy_from_host(host);

  using Span = GlobalSpan<std::uint32_t>;
  const auto ragged = [&](const ThreadCtx& t, const Span& src, const Span& dst,
                          const Span& h) {
    const std::uint64_t i = t.global_index();
    if (i >= kItems) return;
    dst.write(i, 2 * src.read(i) + 1);
    h.atomic_add(i % 4, 1);
  };
  const LaunchConfig flat{8, 128, "ragged"};
  if (per_thread_bind) {
    dev.parallel_for(flat, [&](ThreadCtx& t) {
      ragged(t, t.global(in), t.global(out), t.global(hist));
    });
  } else {
    dev.parallel_for(flat, ragged, in, out, hist);
  }

  const auto tree = [&](BlockCtx& blk, const auto& bind) {
    auto sh = blk.shared<std::uint32_t>(kBlock);
    blk.for_each_thread([&](std::uint32_t tid) {
      const auto [src, dst, tot] = bind();
      (void)dst;
      (void)tot;
      std::uint32_t acc = 0;
      for (std::uint32_t i = blk.block_idx() * kBlock + tid; i < kItems;
           i += kBlocks * kBlock) {
        acc += src.read(i);
      }
      sh[tid] = acc;
    });
    for (std::uint32_t off = kBlock / 2; off > 0; off >>= 1) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid < off) sh[tid] += sh[tid + off];
      });
    }
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid != 0) return;
      const auto [src, dst, tot] = bind();
      (void)src;
      dst.write(blk.block_idx(), sh[0]);
      tot.atomic_add(0, sh[0]);
    });
  };
  const LaunchConfig blocks{kBlocks, kBlock, "tree"};
  if (per_thread_bind) {
    dev.launch_blocks(blocks, [&](BlockCtx& blk) {
      tree(blk, [&] {
        return std::tuple{blk.global(in), blk.global(sums), blk.global(total)};
      });
    });
  } else {
    dev.launch_blocks(
        blocks,
        [&](BlockCtx& blk, const auto& src, const auto& dst, const auto& tot) {
          tree(blk, [&] { return std::tie(src, dst, tot); });
        },
        in, sums, total);
  }

  LaunchOutcome o;
  o.out.resize(kItems);
  o.hist.resize(4);
  o.sums.resize(kBlocks);
  o.total.resize(1);
  out.copy_to_host(o.out);
  hist.copy_to_host(o.hist);
  sums.copy_to_host(o.sums);
  total.copy_to_host(o.total);
  o.stats = dev.stats();
  if (obs::KernelProf* prof = dev.profiler()) {
    for (const obs::LaunchRecord& rec : prof->drain()) {
      for (const auto& [name, t] : rec.buffers) {
        auto& sum = o.prof[name];
        sum[0] += t.read_bytes;
        sum[1] += t.write_bytes;
        sum[2] += t.atomic_ops;
      }
    }
  }
  if (const KernelChecker* chk = dev.checker()) {
    EXPECT_TRUE(chk->clean()) << chk->report();
  }
  return o;
}

TEST(GpuSimLaunch, CanonicalReplayAndBindFormsAgree) {
  const LaunchOutcome ref = run_launch_pair({}, /*per_thread_bind=*/false);
  // Hand-computed: 8 x 128 + 4 x 64 x (1 + 6 tree + 1) phase threads.
  EXPECT_EQ(ref.stats.kernel_launches, 2u);
  EXPECT_EQ(ref.stats.blocks_executed, 8u + 4u);
  EXPECT_EQ(ref.stats.threads_executed, 8u * 128u + 4u * 64u * 8u);
  EXPECT_EQ(ref.stats.global_read_bytes, 2u * 1000u * 4u);
  EXPECT_EQ(ref.stats.global_write_bytes, 1000u * 4u + 4u * 4u);
  EXPECT_EQ(ref.stats.atomic_ops, 1000u + 4u);
  std::uint32_t sum = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(ref.out[i], 2 * (3 * i + 1) + 1);
    sum += 3 * i + 1;
  }
  EXPECT_EQ(ref.hist, (std::vector<std::uint32_t>{250, 250, 250, 250}));
  EXPECT_EQ(ref.total[0], sum);

  const LaunchOutcome profiled = run_launch_pair({.profile = true}, false);
  ASSERT_EQ(profiled.prof.size(), 5u);  // every buffer saw traffic
  for (const bool per_thread : {false, true}) {
    for (const bool check : {false, true}) {
      for (const bool permute : {false, true}) {
        if (permute && !check) continue;  // permute implies access checks
        for (const bool profile : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "per_thread=" << per_thread << " check=" << check
                       << " permute=" << permute << " profile=" << profile);
          const LaunchOutcome o = run_launch_pair(
              {.kernel_check = check, .permute = permute, .profile = profile},
              per_thread);
          expect_same_stats(o.stats, ref.stats);
          EXPECT_EQ(o.out, ref.out);
          EXPECT_EQ(o.hist, ref.hist);
          EXPECT_EQ(o.sums, ref.sums);
          EXPECT_EQ(o.total, ref.total);
          EXPECT_EQ(o.prof, profile ? profiled.prof : ref.prof);
        }
      }
    }
  }
}

/// Everything a launch sequence leaves behind that must not depend on how
/// many workers the device spreads its blocks over.
struct WorkerOutcome {
  DeviceStats stats;
  std::vector<std::uint32_t> out, hist, sums;
  std::vector<std::uint64_t> mx;
  std::vector<double> dsum, total;
  std::vector<float> fsum;
  std::map<std::string, std::array<std::uint64_t, 3>> prof;
  std::uint64_t binds = 0;
};

constexpr std::uint32_t kWItems = 5000, kWBlock = 64;
constexpr std::uint32_t kWGrid = (kWItems + kWBlock - 1) / kWBlock;  // 79
constexpr std::uint32_t kWTreeBlocks = 41, kWTreeBlock = 32;

double w_value(std::uint32_t i) { return 0.1 * (i % 97) + 1e-7 * i; }

/// A ragged parallel_for (79 blocks of 64 threads over 5000 items) with
/// integer and floating-point atomics and an in-thread bind, then a
/// shared-memory tree reduction over 41 blocks whose thread 0 publishes
/// through an in-thread bind and an FP atomic.  Both launches have enough
/// blocks to run block-parallel at every worker count tested (4 per
/// worker at W = 7 is 28).
WorkerOutcome run_on_workers(unsigned workers, bool profile) {
  Device dev(0, {.obs = {.profile = profile}, .workers = workers});
  std::vector<std::uint32_t> host(kWItems);
  for (std::uint32_t i = 0; i < kWItems; ++i) host[i] = 7 * i + 3;
  DeviceBuffer<std::uint32_t> in(dev, kWItems, 0, "in");
  DeviceBuffer<std::uint32_t> out(dev, kWItems, 0, "out");
  DeviceBuffer<std::uint32_t> hist(dev, 8, 0, "hist");
  DeviceBuffer<std::uint64_t> mx(dev, 4, 0, "mx");
  DeviceBuffer<double> dsum(dev, 3, 0.0, "dsum");
  DeviceBuffer<float> fsum(dev, 2, 0.0f, "fsum");
  DeviceBuffer<std::uint32_t> sums(dev, kWTreeBlocks, 0, "sums");
  DeviceBuffer<double> total(dev, 1, 0.0, "total");
  in.copy_from_host(host);

  using U32 = GlobalSpan<std::uint32_t>;
  dev.parallel_for(
      {kWGrid, kWBlock, "w_ragged"},
      [&](ThreadCtx& t, const U32& src, const U32& dst,
          const GlobalSpan<std::uint64_t>& m, const GlobalSpan<double>& d) {
        const auto i = static_cast<std::uint32_t>(t.global_index());
        if (i >= kWItems) return;
        const std::uint32_t v = src.read(i);
        dst.write(i, 2 * v + 1);
        t.global(hist).atomic_add(i % 8, 1);
        m.atomic_max(i % 4, (std::uint64_t{v} * 2654435761u) % 100003);
        d.atomic_add(i % 3, w_value(i));
        t.global(fsum).atomic_add(i % 2, static_cast<float>(w_value(i)));
      },
      in, out, mx, dsum);

  dev.launch_blocks(
      {kWTreeBlocks, kWTreeBlock, "w_tree"},
      [&](BlockCtx& blk, const U32& src, const GlobalSpan<double>& tot) {
        auto sh = blk.shared<std::uint32_t>(kWTreeBlock);
        blk.for_each_thread([&](std::uint32_t tid) {
          std::uint32_t acc = 0;
          for (std::uint32_t i = blk.block_idx() * kWTreeBlock + tid;
               i < kWItems; i += kWTreeBlocks * kWTreeBlock) {
            acc += src.read(i);
          }
          sh[tid] = acc;
        });
        for (std::uint32_t off = kWTreeBlock / 2; off > 0; off >>= 1) {
          blk.for_each_thread([&](std::uint32_t tid) {
            if (tid < off) sh[tid] += sh[tid + off];
          });
        }
        blk.for_each_thread([&](std::uint32_t tid) {
          if (tid != 0) return;
          blk.global(sums).write(blk.block_idx(), sh[0]);
          tot.atomic_add(0, 1e-3 * sh[0] + w_value(blk.block_idx()));
        });
      },
      in, total);

  WorkerOutcome o;
  o.out.resize(kWItems);
  o.hist.resize(8);
  o.mx.resize(4);
  o.dsum.resize(3);
  o.fsum.resize(2);
  o.sums.resize(kWTreeBlocks);
  o.total.resize(1);
  out.copy_to_host(o.out);
  hist.copy_to_host(o.hist);
  mx.copy_to_host(o.mx);
  dsum.copy_to_host(o.dsum);
  fsum.copy_to_host(o.fsum);
  sums.copy_to_host(o.sums);
  total.copy_to_host(o.total);
  o.stats = dev.stats();
  if (obs::KernelProf* prof = dev.profiler()) {
    o.binds = prof->total_binds();
    for (const obs::LaunchRecord& rec : prof->drain()) {
      for (const auto& [name, t] : rec.buffers) {
        auto& sum = o.prof[name];
        sum[0] += t.read_bytes;
        sum[1] += t.write_bytes;
        sum[2] += t.atomic_ops;
      }
    }
  }
  return o;
}

TEST(GpuSimLaunch, WorkerCountInvariant) {
  const WorkerOutcome ref = run_on_workers(1, /*profile=*/false);
  // The FP atomics land in canonical serial order: ascending thread index
  // within the launch, whatever the worker count.
  std::array<double, 3> dsum{};
  std::array<float, 2> fsum{};
  for (std::uint32_t i = 0; i < kWItems; ++i) {
    dsum[i % 3] = dsum[i % 3] + w_value(i);
    fsum[i % 2] = fsum[i % 2] + static_cast<float>(w_value(i));
  }
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(ref.dsum[s], dsum[s]);
  for (std::size_t s = 0; s < 2; ++s) EXPECT_EQ(ref.fsum[s], fsum[s]);
  EXPECT_EQ(ref.stats.blocks_executed, kWGrid + kWTreeBlocks);
  EXPECT_EQ(ref.stats.threads_executed,
            kWGrid * kWBlock + kWTreeBlocks * kWTreeBlock * 7u);
  EXPECT_EQ(ref.stats.shared_bytes_allocated,
            kWTreeBlocks * kWTreeBlock * sizeof(std::uint32_t));
  EXPECT_EQ(ref.stats.atomic_ops, 4u * kWItems + kWTreeBlocks);

  const WorkerOutcome ref_prof = run_on_workers(1, /*profile=*/true);
  ASSERT_EQ(ref_prof.prof.size(), 8u);  // every buffer saw traffic
  // One bind per launch argument (6) plus one per in-thread bind call.
  EXPECT_EQ(ref_prof.binds, 6u + 2u * kWItems + kWTreeBlocks);
  for (const unsigned w : {1u, 2u, 3u, 7u}) {
    for (const bool profile : {false, true}) {
      SCOPED_TRACE(testing::Message() << "workers=" << w
                                      << " profile=" << profile);
      const WorkerOutcome o = run_on_workers(w, profile);
      const WorkerOutcome& r = profile ? ref_prof : ref;
      expect_same_stats(o.stats, r.stats);
      EXPECT_EQ(o.out, r.out);
      EXPECT_EQ(o.hist, r.hist);
      EXPECT_EQ(o.mx, r.mx);
      EXPECT_EQ(o.dsum, r.dsum);  // bit-exact, not approximately
      EXPECT_EQ(o.fsum, r.fsum);
      EXPECT_EQ(o.sums, r.sums);
      EXPECT_EQ(o.total, r.total);
      EXPECT_EQ(o.prof, r.prof);
      EXPECT_EQ(o.binds, r.binds);
    }
  }
  expect_same_stats(ref_prof.stats, ref.stats);
}

/// What a run-granular launch leaves behind (RunEquivalence below).
struct RunOutcome {
  DeviceStats stats;
  std::vector<std::uint32_t> out, hist;
  std::vector<std::uint64_t> mx;
  std::map<std::string, std::array<std::uint64_t, 3>> prof;
  std::uint64_t binds = 0;
};

constexpr std::uint32_t kRBlock = 96;

/// A ragged run-body kernel: `grid` blocks of 96 threads over 20 fewer
/// items, cut into runs at multiples of `segment`.  Each run reads and
/// writes its items as blocks, makes one integer atomic_add and one
/// atomic_max per item and binds `hist` from inside the run.
RunOutcome run_segments(std::uint32_t grid, std::uint32_t segment,
                        unsigned workers, const obs::Config& cfg) {
  const std::uint32_t items = grid * kRBlock - 20;
  Device dev(0, {.obs = cfg, .workers = workers});
  std::vector<std::uint32_t> host(items);
  for (std::uint32_t i = 0; i < items; ++i) host[i] = 5 * i + 2;
  DeviceBuffer<std::uint32_t> in(dev, items, 0, "in");
  DeviceBuffer<std::uint32_t> out(dev, items, 0, "out");
  DeviceBuffer<std::uint32_t> hist(dev, 8, 0, "hist");
  DeviceBuffer<std::uint64_t> mx(dev, 4, 0, "mx");
  in.copy_from_host(host);

  using U32 = GlobalSpan<std::uint32_t>;
  dev.parallel_runs(
      {grid, kRBlock, "runs"}, segment,
      [&](const RunCtx& r, const U32& src, const U32& dst,
          const GlobalSpan<std::uint64_t>& m) {
        const U32 h = r.global(hist);  // one bind per thread of the run
        const std::uint64_t i0 = r.global_index();
        if (i0 >= items) return;
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(r.count(), items - i0));
        const std::uint32_t* a = src.read_block(i0, n);
        std::uint32_t* b = dst.write_block(i0, n);
        for (std::uint32_t j = 0; j < n; ++j) {
          const auto i = static_cast<std::uint32_t>(i0) + j;
          b[j] = 3 * a[j] + 1;
          h.atomic_add(i % 8, 1);
          m.atomic_max(i % 4, (std::uint64_t{a[j]} * 2654435761u) % 100003);
        }
      },
      in, out, mx);

  RunOutcome o;
  o.out.resize(items);
  o.hist.resize(8);
  o.mx.resize(4);
  out.copy_to_host(o.out);
  hist.copy_to_host(o.hist);
  mx.copy_to_host(o.mx);
  o.stats = dev.stats();
  if (obs::KernelProf* prof = dev.profiler()) {
    o.binds = prof->total_binds();
    for (const obs::LaunchRecord& rec : prof->drain()) {
      for (const auto& [name, t] : rec.buffers) {
        o.prof[name] = {t.read_bytes, t.write_bytes, t.atomic_ops};
      }
    }
  }
  if (const KernelChecker* chk = dev.checker()) {
    EXPECT_TRUE(chk->clean()) << chk->report();
  }
  return o;
}

TEST(GpuSimLaunch, RunsCountLikeTheirThreadsForEverySegmentAndWorkerCount) {
  // 7 blocks stay below the block-parallel threshold; 29 blocks spread
  // over 3 workers.  The checked launches run one thread per run.
  for (const std::uint32_t grid : {7u, 29u}) {
    const std::uint32_t items = grid * kRBlock - 20;
    const RunOutcome checked =
        run_segments(grid, 1, 1, {.kernel_check = true, .profile = true});
    EXPECT_EQ(checked.stats.threads_executed, grid * kRBlock);
    EXPECT_EQ(checked.stats.blocks_executed, grid);
    EXPECT_EQ(checked.stats.global_read_bytes, items * 4u);
    EXPECT_EQ(checked.stats.global_write_bytes, items * 4u);
    EXPECT_EQ(checked.stats.atomic_ops, 2u * items);
    // Three launch arguments, plus one in-run bind per launched thread.
    EXPECT_EQ(checked.binds, 3u + grid * kRBlock);
    ASSERT_EQ(checked.prof.size(), 4u);
    for (std::uint32_t i = 0; i < items; ++i) {
      ASSERT_EQ(checked.out[i], 3 * (5 * i + 2) + 1);
    }
    for (const std::uint32_t segment : {1u, 5u, 8u, 96u, 1000u}) {
      for (const unsigned w : {1u, 3u}) {
        for (const bool check : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "grid=" << grid << " segment=" << segment
                       << " workers=" << w << " permute=" << check);
          const RunOutcome o = run_segments(
              grid, segment, w,
              {.kernel_check = check, .permute = check, .profile = true});
          expect_same_stats(o.stats, checked.stats);
          EXPECT_EQ(o.out, checked.out);
          EXPECT_EQ(o.hist, checked.hist);
          EXPECT_EQ(o.mx, checked.mx);
          EXPECT_EQ(o.prof, checked.prof);
          EXPECT_EQ(o.binds, checked.binds);
        }
      }
    }
  }
}

TEST(GpuSimLaunch, RunsEndAtBlockAndSegmentEdgesAndAreThreadsUnderACheck) {
  // 3 blocks of 12 threads, segment 5: the flat index is cut at 5, 10,
  // 15, ... and at every block end.
  const auto runs_of = [](const obs::Config& cfg) {
    Device dev(0, {.obs = cfg});
    std::vector<std::array<std::uint32_t, 3>> runs;
    dev.parallel_runs({3, 12, "edges"}, 5, [&](const RunCtx& r) {
      runs.push_back({r.block_idx(), r.first_thread(), r.count()});
    });
    return runs;
  };
  using Runs = std::vector<std::array<std::uint32_t, 3>>;
  EXPECT_EQ(runs_of({}), (Runs{{0, 0, 5}, {0, 5, 5}, {0, 10, 2},
                               {1, 0, 3}, {1, 3, 5}, {1, 8, 4},
                               {2, 0, 1}, {2, 1, 5}, {2, 6, 5}, {2, 11, 1}}));
  Runs threads;
  for (std::uint32_t b = 0; b < 3; ++b) {
    for (std::uint32_t t = 0; t < 12; ++t) threads.push_back({b, t, 1});
  }
  EXPECT_EQ(runs_of({.kernel_check = true}), threads);
  // A permuted launch runs two replays and the canonical pass, every
  // run one thread.
  const Runs permuted = runs_of({.kernel_check = true, .permute = true});
  ASSERT_EQ(permuted.size(), 3 * threads.size());
  for (const auto& r : permuted) EXPECT_EQ(r[2], 1u);
  EXPECT_TRUE(std::equal(threads.begin(), threads.end(),
                         permuted.end() - static_cast<long>(threads.size())));
}

TEST(GpuSimLaunch, ThrowInAHelperWorkerReachesTheCaller) {
  Device dev(0, {.obs = {}, .workers = 3});
  DeviceBuffer<int> buf(dev, 16, 0, "small");
  // Block 40 runs on the last worker and reads out of bounds.
  EXPECT_THROW(dev.parallel_for({48, 1, "k_oob"},
                                [&](ThreadCtx& t, const GlobalSpan<int>& b) {
                                  if (t.block_idx() == 40) (void)b.read(99);
                                },
                                buf),
               Error);
  EXPECT_FALSE(dev.kernel_active());
  // The device stays usable.
  dev.parallel_for({48, 1, "k_ok"}, [&](ThreadCtx& t, const GlobalSpan<int>& b) {
    if (t.block_idx() < 16) b.write(t.block_idx(), 1);
  }, buf);
  std::vector<int> host(16);
  buf.copy_to_host(host);
  EXPECT_EQ(host, std::vector<int>(16, 1));
}

TEST(GpuSimLaunch, ForeignLaunchArgumentThrowsBeforeAnyThreadRuns) {
  Device a(0, {.obs = {}}), b(1, {.obs = {}});
  DeviceBuffer<float> mine(a, 4, 0.0f), foreign(b, 4, 0.0f);
  bool ran = false;
  const auto touch = [&](auto&...) { ran = true; };
  EXPECT_THROW(a.parallel_for({1, 4}, touch, mine, foreign), Error);
  EXPECT_THROW(a.launch_blocks({1, 4}, touch, foreign), Error);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(a.kernel_active());
}

TEST(GpuSimLaunch, SpanUsedAfterItsLaunchIsReportedByKernelCheck) {
  Device dev(0, {.obs = {.kernel_check = true}});
  DeviceBuffer<int> buf(dev, 4, 7, "kept");
  std::optional<GlobalSpan<int>> kept;
  dev.parallel_for(
      {1, 1}, [&](ThreadCtx&, const GlobalSpan<int>& s) { kept = s; }, buf);
  ASSERT_TRUE(dev.checker()->clean());
  EXPECT_EQ(kept->read(2), 7);  // the launch has ended: a stale access
  EXPECT_EQ(dev.checker()->violation_count(), 1u);
  EXPECT_NE(dev.checker()->report().find("stale span"), std::string::npos)
      << dev.checker()->report();
  EXPECT_NE(dev.checker()->report().find("'kept' element 2"),
            std::string::npos);
}

}  // namespace
}  // namespace simcov::gpusim
