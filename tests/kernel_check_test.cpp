// KernelCheck: the virtual-GPU race & determinism analyzer.
//
// Each negative test runs a deliberately broken kernel twice over the
// design: with the checker off it completes silently (the sequential
// substrate executes *one* legal schedule, so the race is invisible), and
// with the checker on the launch throws a diagnostic naming the rule, the
// kernel, the buffer and the first conflicting pair.  Positive tests pin
// down that the blessed patterns — disjoint writes, atomic reductions,
// phased shared-memory trees — stay silent, that schedule permutation
// leaves floating-point atomic reductions at their canonical bits, flags
// order dependence that reaches memory through integer atomics, and never
// perturbs canonical results, and that the full GPU simulation is
// race-free and bit-deterministic end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "fail_fast.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/config.hpp"
#include "pgas/runtime.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/error.hpp"

namespace simcov::gpusim {
namespace {

// Tests pass an explicit obs::Config, so the CI kernel-check job's
// suite-wide SIMCOV_KERNEL_CHECK=1 cannot change what they exercise.
DeviceOptions unchecked() { return {.obs = {}}; }
DeviceOptions access_checked() { return {.obs = {.kernel_check = true}}; }
DeviceOptions permuted() {
  return {.obs = {.kernel_check = true, .permute = true}};
}
/// Options parsed from an environment holding only SIMCOV_KERNEL_CHECK.
DeviceOptions from_kernel_check_env(const char* value) {
  return {.obs = obs::Config::from_env([value](const char* name) {
    return std::string_view(name) == "SIMCOV_KERNEL_CHECK" ? value : nullptr;
  })};
}

/// Runs `fn` and returns the KernelCheck diagnostic ("" if it ran clean).
template <typename F>
std::string launch_error(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// ---- enablement ----------------------------------------------------------

TEST(KernelCheck, OffByDefaultRacesRunSilently) {
  Device dev(0, unchecked());
  EXPECT_EQ(dev.checker(), nullptr);
  DeviceBuffer<int> buf(dev, 1, 0);
  // Every thread writes element 0 — a write-write race, invisible without
  // the checker because the sequential schedule executes it benignly.
  dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
    t.global(buf).write(0, static_cast<int>(t.thread_idx()));
  });
  EXPECT_FALSE(dev.kernel_active());
}

TEST(KernelCheck, EnvVarEnablesAccessChecking) {
  // End to end: SIMCOV_KERNEL_CHECK reaches a Device built with default
  // options, which is how the CI kernel-check job checks every Device the
  // suite builds.  The caller's value is restored before asserting.
  const char* prev = std::getenv("SIMCOV_KERNEL_CHECK");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("SIMCOV_KERNEL_CHECK", "1", 1);
  Device dev(0);
  Device explicit_off(1, unchecked());
  if (prev != nullptr) {
    ::setenv("SIMCOV_KERNEL_CHECK", saved.c_str(), 1);
  } else {
    ::unsetenv("SIMCOV_KERNEL_CHECK");
  }
  EXPECT_EQ(explicit_off.checker(), nullptr);
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->access_checking());
  EXPECT_FALSE(dev.checker()->permute_schedules());
}

TEST(KernelCheck, EnvVarPermuteEnablesBothModes) {
  Device dev(0, from_kernel_check_env("permute"));
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->access_checking());
  EXPECT_TRUE(dev.checker()->permute_schedules());
}

TEST(KernelCheck, EnvVarZeroIsOff) {
  Device dev(0, from_kernel_check_env("0"));
  EXPECT_EQ(dev.checker(), nullptr);
}

// ---- seeded races: global memory -----------------------------------------

TEST(KernelCheck, WriteWriteRaceDetected) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 4, 0, "race_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
      t.global(buf).write(0, static_cast<int>(t.thread_idx()));
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("k_seeded_ww"), std::string::npos) << err;
  EXPECT_NE(err.find("race_target"), std::string::npos) << err;
  EXPECT_FALSE(dev.kernel_active());  // launch depth unwound despite throw
}

TEST(KernelCheck, DiagnosticsCarryKernelNameConfigAndFirstPair) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 4, 0, "race_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
      t.global(buf).write(0, 1);
    });
  });
  EXPECT_NE(err.find("'k_seeded_ww' <<1x4>>"), std::string::npos) << err;
  EXPECT_NE(err.find("buffer 'race_target' element 0"), std::string::npos)
      << err;
  // First conflicting pair: thread 0's write vs thread 1's.
  EXPECT_NE(err.find("(block 0, thread 0, phase 0) vs "
                     "(block 0, thread 1, phase 0)"),
            std::string::npos)
      << err;
}

TEST(KernelCheck, ReadWriteRaceDetected) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 2, 0, "rw_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_rw"}, [&](auto& t) {
      auto g = t.global(buf);
      if (t.thread_idx() == 0) {
        g.write(0, 7);
      } else {
        g.read(0);
      }
    });
  });
  EXPECT_NE(err.find("read-write race"), std::string::npos) << err;
}

TEST(KernelCheck, AtomicPlainMixDetected) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "mix_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_mix"}, [&](auto& t) {
      auto g = t.global(buf);
      if (t.thread_idx() == 0) {
        g.write(0, 1);  // plain store racing the other threads' atomics
      } else {
        g.atomic_add(0, 1);
      }
    });
  });
  EXPECT_NE(err.find("atomic-plain mix"), std::string::npos) << err;
}

TEST(KernelCheck, CrossBlockWriteConflictDetected) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "xblock");
  // Blocks are never ordered within a launch, phases or not.
  const std::string err = launch_error([&] {
    dev.launch_blocks({2, 2, "k_xblock"}, [&](auto& blk) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid == 0) blk.global(buf).write(0, 1);
      });
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("block 0"), std::string::npos) << err;
  EXPECT_NE(err.find("block 1"), std::string::npos) << err;
}

TEST(KernelCheck, AliasedViewsOfOneBufferDetected) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 2, 0, "aliased");
  // Two spans over the same storage: the shadow keys on the underlying
  // allocation, so the conflict is found across views.
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 2, "k_aliased"}, [&](auto& t) {
      auto a = t.global(buf);
      auto b = t.global(buf);
      if (t.thread_idx() == 0) {
        a.write(0, 1);
      } else {
        b.write(0, 2);
      }
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("aliased"), std::string::npos) << err;
}

// ---- seeded races: shared memory -----------------------------------------

TEST(KernelCheck, SharedSamePhaseWriteIsPhaseViolation) {
  Device dev(0, access_checked());
  // The exact pattern the tile sweep used to have: every thread of the
  // block raises a single shared flag in the same phase.
  const std::string err = launch_error([&] {
    dev.launch_blocks({1, 4, "k_shared_flag"}, [&](auto& blk) {
      auto found = blk.template shared<std::uint32_t>(1);
      blk.for_each_thread([&](std::uint32_t) { found[0] = 1; });
    });
  });
  EXPECT_NE(err.find("shared-memory phase violation"), std::string::npos)
      << err;
  EXPECT_NE(err.find("k_shared_flag"), std::string::npos) << err;
}

TEST(KernelCheck, SharedReadOfOtherThreadsSlotSamePhaseDetected) {
  Device dev(0, access_checked());
  const std::string err = launch_error([&] {
    dev.launch_blocks({1, 4, "k_shared_norace_missing_sync"}, [&](auto& blk) {
      auto sh = blk.template shared<int>(4);
      blk.for_each_thread([&](std::uint32_t tid) {
        sh[tid] = static_cast<int>(tid);
        // Reading the neighbour's slot in the *same* phase only works
        // because threads run sequentially here — a missing __syncthreads.
        if (tid > 0) (void)static_cast<int>(sh[tid - 1]);
      });
    });
  });
  EXPECT_NE(err.find("shared-memory phase violation (read-write)"),
            std::string::npos)
      << err;
}

TEST(KernelCheck, SharedPhasedTreeReductionIsClean) {
  Device dev(0, access_checked());
  DeviceBuffer<int> out(dev, 1, 0, "tree_out");
  dev.launch_blocks({2, 4, "k_tree"}, [&](auto& blk) {
    auto sh = blk.template shared<int>(4);
    blk.for_each_thread(
        [&](std::uint32_t tid) { sh[tid] = static_cast<int>(tid) + 1; });
    for (std::uint32_t off = 2; off > 0; off >>= 1) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid < off) sh[tid] += sh[tid + off];
      });
    }
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) blk.global(out).atomic_add(0, sh[0]);
    });
  });
  std::vector<int> host(1);
  out.copy_to_host(host);
  EXPECT_EQ(host[0], 2 * (1 + 2 + 3 + 4));
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_GT(dev.checker()->accesses_checked(), 0u);
}

// ---- clean patterns stay silent ------------------------------------------

TEST(KernelCheck, DisjointWritesClean) {
  Device dev(0, access_checked());
  DeviceBuffer<std::uint64_t> buf(dev, 64, 0, "disjoint");
  dev.parallel_for({4, 16, "k_disjoint"}, [&](auto& t) {
    t.global(buf).write(t.global_index(), t.global_index());
  });
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_EQ(dev.checker()->launches_checked(), 1u);
}

TEST(KernelCheck, AtomicReductionClean) {
  Device dev(0, access_checked());
  DeviceBuffer<std::uint64_t> sum(dev, 1, 0, "sum");
  dev.parallel_for({2, 32, "k_atomic_sum"}, [&](auto& t) {
    t.global(sum).atomic_add(0, t.global_index());
  });
  std::vector<std::uint64_t> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], 64u * 63u / 2u);
  EXPECT_TRUE(dev.checker()->clean());
}

TEST(KernelCheck, SameThreadReadModifyWriteClean) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 8, 1, "rmw");
  dev.parallel_for({1, 8, "k_rmw"}, [&](auto& t) {
    auto g = t.global(buf);
    const std::size_t i = t.thread_idx();
    for (int k = 0; k < 4; ++k) g.write(i, g.read(i) * 2);
  });
  EXPECT_TRUE(dev.checker()->clean());
}

TEST(KernelCheck, FreshLaunchForgetsPreviousAccesses) {
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "sequential");
  // Same element written by different threads in *different launches*:
  // launches are synchronization points, so this must stay silent.
  dev.parallel_for({1, 2, "k_first"}, [&](auto& t) {
    if (t.thread_idx() == 0) t.global(buf).write(0, 1);
  });
  dev.parallel_for({1, 2, "k_second"}, [&](auto& t) {
    if (t.thread_idx() == 1) t.global(buf).write(0, 2);
  });
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_EQ(dev.checker()->launches_checked(), 2u);
}

// ---- schedule permutation ------------------------------------------------

TEST(KernelCheck, SeededPermutationIsDeterministicAndComplete) {
  const auto p1 = seeded_permutation(42, 17);
  const auto p2 = seeded_permutation(42, 17);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, seeded_permutation(43, 17));
  std::vector<bool> seen(17, false);
  for (const std::uint64_t v : p1) {
    ASSERT_LT(v, 17u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(KernelCheck, PermutationCleanForInexactFloatAtomicsInOneBlock) {
  // (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 in binary floating point, so
  // the replays' thread orders would change these sums if the device
  // applied FP atomics as they ran.  It applies them in canonical
  // (block, phase, thread) order, each thread's in program order, so every
  // schedule gives the canonical serial sum.
  Device dev(0, permuted());
  DeviceBuffer<double> sum(dev, 1, 0.0, "fp_sum");
  dev.parallel_for({1, 3, "k_fp_reduce"}, [&](auto& t, const auto& out) {
    out.atomic_add(0, 0.1 * (t.thread_idx() + 1));
  }, sum);
  double expect = 0.0;
  for (int t = 0; t < 3; ++t) expect = expect + 0.1 * (t + 1);
  std::vector<double> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], expect);

  // A cooperative kernel: each thread adds twice in each of two phases,
  // and the block driver adds between the phases.
  constexpr std::uint32_t kBlocks = 3, kThreads = 4;
  DeviceBuffer<double> coop(dev, 2, 0.0, "coop_sum");
  const auto term = [](std::uint32_t b, std::uint32_t t, int k) {
    return 0.1 * (t + 1) + 0.01 * (b + 1) + 0.001 * k;
  };
  dev.launch_blocks({kBlocks, kThreads, "k_fp_phases"}, [&](auto& blk,
                                                           const auto& out) {
    const std::uint32_t b = blk.block_idx();
    blk.for_each_thread([&](std::uint32_t t) {
      out.atomic_add(0, term(b, t, 0));
      out.atomic_add(1, term(b, t, 1));
      out.atomic_add(0, term(b, t, 2));
    });
    out.atomic_add(0, term(b, 7, 3));
    blk.for_each_thread([&](std::uint32_t t) {
      out.atomic_add(0, term(b, t, 4));
      out.atomic_add(1, term(b, t, 5));
    });
  }, coop);
  double e0 = 0.0, e1 = 0.0;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      e0 = e0 + term(b, t, 0);
      e1 = e1 + term(b, t, 1);
      e0 = e0 + term(b, t, 2);
    }
    e0 = e0 + term(b, 7, 3);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      e0 = e0 + term(b, t, 4);
      e1 = e1 + term(b, t, 5);
    }
  }
  std::vector<double> both(2);
  coop.copy_to_host(both);
  EXPECT_EQ(both[0], e0);
  EXPECT_EQ(both[1], e1);
  EXPECT_TRUE(dev.checker()->clean()) << dev.checker()->report();
  EXPECT_EQ(dev.checker()->launches_permuted(), 2u);
}

TEST(KernelCheck, PermutationFlagsOrderDependentAtomicSlots) {
  // Each thread claims an output slot through an integer atomic's return
  // value.  Nothing races and the counter ends the same, but which thread
  // lands in which slot follows the schedule: order dependence the replay
  // diff must catch.
  Device dev(0, permuted());
  DeviceBuffer<std::uint32_t> next(dev, 1, 0, "slot_counter");
  DeviceBuffer<std::uint32_t> slots(dev, 8, 0, "claimed_slots");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 8, "k_claim_slots"}, [&](auto& t, const auto& n,
                                                  const auto& out) {
      out.write(n.atomic_add(0, 1u), t.thread_idx());
    }, next, slots);
  });
  EXPECT_NE(err.find("schedule-dependent result"), std::string::npos) << err;
  EXPECT_NE(err.find("claimed_slots"), std::string::npos) << err;
  EXPECT_NE(err.find("k_claim_slots"), std::string::npos) << err;
}

TEST(KernelCheck, PermutationCleanForIntegerAtomicsAndCountsOnce) {
  Device dev(0, {.obs = {.kernel_check = true, .permute = true,
                         .profile = true}});
  DeviceBuffer<std::uint64_t> sum(dev, 1, 0, "int_sum");
  dev.parallel_for({2, 8, "k_int_reduce"}, [&](auto& t) {
    t.global(sum).atomic_add(0, 1);
  });
  std::vector<std::uint64_t> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], 16u);
  // Replays count nothing: counters describe the canonical run only.
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().blocks_executed, 2u);
  EXPECT_EQ(dev.stats().threads_executed, 16u);
  EXPECT_EQ(dev.stats().atomic_ops, 16u);
  EXPECT_EQ(dev.checker()->launches_permuted(), 1u);
  EXPECT_TRUE(dev.checker()->clean());
  // So does KernelProf: one record, the canonical traffic and binds.
  const std::vector<obs::LaunchRecord> recs = dev.profiler()->drain();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].threads, 16u);
  EXPECT_EQ(recs[0].atomic_ops, 16u);
  ASSERT_EQ(recs[0].buffers.size(), 1u);
  EXPECT_EQ(recs[0].buffers[0].first, "int_sum");
  EXPECT_EQ(recs[0].buffers[0].second.atomic_ops, 16u);
  EXPECT_EQ(dev.profiler()->total_binds(), 16u);
}

TEST(KernelCheck, PermutationKeepsCanonicalResult) {
  auto run = [](Device& dev) {
    DeviceBuffer<std::uint64_t> buf(dev, 32, 0, "squares");
    dev.parallel_for({2, 16, "k_squares"}, [&](auto& t) {
      t.global(buf).write(t.global_index(),
                          t.global_index() * t.global_index());
    });
    std::vector<std::uint64_t> host(32);
    buf.copy_to_host(host);
    return host;
  };
  Device plain(0, unchecked());
  Device checked(1, permuted());
  EXPECT_EQ(run(plain), run(checked));
}

TEST(KernelCheck, PermutationCleanForCrossBlockFloatAtomics) {
  // One FP atomic_add per block: the device applies them in block order,
  // so shuffled and reversed block schedules give the canonical bits.
  Device dev(0, permuted());
  DeviceBuffer<double> sum(dev, 1, 0.0, "block_sum");
  dev.launch_blocks({7, 2, "k_block_fp"}, [&](auto& blk) {
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) blk.global(sum).atomic_add(0, 0.1 * (blk.block_idx() + 1));
    });
  });
  double expect = 0.0;
  for (int b = 0; b < 7; ++b) expect = expect + 0.1 * (b + 1);
  std::vector<double> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], expect);
  EXPECT_TRUE(dev.checker()->clean()) << dev.checker()->report();
  EXPECT_EQ(dev.checker()->launches_permuted(), 1u);
}

// ---- full simulation ------------------------------------------------------

SimParams checker_sim_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 32;
  p.dim_y = 32;
  p.num_steps = 60;
  p.num_foi = 2;
  p.seed = 99;
  p.tcell_initial_delay = 15;
  p.tcell_generation_rate = 4.0;
  p.incubation_period = 8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

/// Every device counter of a checked run equals the unchecked run's: a
/// checked launch runs one thread per run, an unchecked one whole runs, and
/// both must count the same threads, blocks, bytes and atomics.
void expect_same_device_total(const gpusim::DeviceStats& a,
                              const gpusim::DeviceStats& b) {
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
  EXPECT_EQ(a.threads_executed, b.threads_executed);
  EXPECT_EQ(a.global_read_bytes, b.global_read_bytes);
  EXPECT_EQ(a.global_write_bytes, b.global_write_bytes);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.shared_bytes_allocated, b.shared_bytes_allocated);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
}

TEST(KernelCheck, FullGpuSimCleanUnderCheckerAndUnperturbed) {
  const SimParams p = checker_sim_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.record_digests = true;
  plain.obs = obs::Config{};
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions checked = plain;
  checked.obs.kernel_check = true;
  const auto r = gpu::run_gpu_sim(p, foi, checked);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_GT(r.check_accesses, 0u);
  EXPECT_EQ(r.digests, base.digests);  // observation does not perturb
  expect_same_device_total(r.device_total, base.device_total);
  EXPECT_EQ(base.check_accesses, 0u);  // and off means off
}

TEST(KernelCheck, SmokeScenarioBitIdenticalUnderPermutedSchedules) {
  // The cli_gpu_smoke configuration: every launch of every step must
  // produce bit-identical buffers under reversed and shuffled schedules,
  // and the permuted run's digests must equal the plain run's.
  SimParams p;
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 40;
  p.num_foi = 2;
  p.incubation_period = 10;
  p.tcell_initial_delay = 15;
  p.tcell_generation_rate = 4.0;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.record_digests = true;
  plain.obs = obs::Config{};
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions perm = plain;
  perm.obs.kernel_check = true;
  perm.obs.permute = true;
  const auto r = gpu::run_gpu_sim(p, foi, perm);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.digests, base.digests);
  expect_same_device_total(r.device_total, base.device_total);
}

TEST(KernelCheck, RaggedRanksAndTilesPermuteCleanAndCountAlike) {
  // 37x29 over 3 ranks: ragged sub-domains whose edge tiles are part
  // padding, so unchecked runs are cut at block ends, tile-row ends and
  // the domain edge, while the permuted run executes one thread per run.
  for (const std::int32_t side : {5, 8}) {
    SCOPED_TRACE(testing::Message() << "tile_side=" << side);
    SimParams p = checker_sim_params();
    p.dim_x = 37;
    p.dim_y = 29;
    p.num_steps = 40;
    p.tile_side = side;
    const Grid grid(p.dim_x, p.dim_y, p.dim_z);
    const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

    gpu::GpuSimOptions plain;
    plain.num_ranks = 3;
    plain.record_digests = true;
    plain.obs = obs::Config{};
    const auto base = gpu::run_gpu_sim(p, foi, plain);

    gpu::GpuSimOptions perm = plain;
    perm.obs.kernel_check = true;
    perm.obs.permute = true;
    const auto r = gpu::run_gpu_sim(p, foi, perm);
    EXPECT_EQ(r.check_violations, 0u);
    EXPECT_EQ(r.digests, base.digests);
    expect_same_device_total(r.device_total, base.device_total);
    ASSERT_EQ(r.history.size(), base.history.size());
    for (std::size_t i = 0; i < r.history.size(); ++i) {
      EXPECT_EQ(r.history[i].flatten(), base.history[i].flatten())
          << "step " << i;
    }
  }
}

TEST(KernelCheck, MultiBlockTreeReductionPermutesWithoutExemption) {
  // 64x64 on one rank is 4096 interior slots, so reduce_tree launches 4
  // blocks whose partial sums meet through FP atomics: every permuted
  // replay must reproduce the canonical bits, statistics included.
  SimParams p = checker_sim_params();
  p.dim_x = 64;
  p.dim_y = 64;
  p.num_steps = 30;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.num_ranks = 1;
  plain.record_digests = true;
  plain.obs = obs::Config{};
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions perm = plain;
  perm.obs.kernel_check = true;
  perm.obs.permute = true;
  const auto r = gpu::run_gpu_sim(p, foi, perm);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.digests, base.digests);
  ASSERT_EQ(r.history.size(), base.history.size());
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    EXPECT_EQ(r.history[i].flatten(), base.history[i].flatten())
        << "step " << i;
  }
}

TEST(KernelCheck, UnoptimizedVariantPermutesCleanAndBitIdentical) {
  // The Unoptimized variant reduces its statistics with per-voxel FP
  // atomics (reduce_atomic), many per block: permuted replays must give
  // the canonical bits, statistics included, with no exemption.
  const SimParams p = checker_sim_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.variant = gpu::GpuVariant::unoptimized();
  plain.record_digests = true;
  plain.obs = obs::Config{};
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions perm = plain;
  perm.obs.kernel_check = true;
  perm.obs.permute = true;
  const auto r = gpu::run_gpu_sim(p, foi, perm);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.digests, base.digests);
  expect_same_device_total(r.device_total, base.device_total);
  ASSERT_EQ(r.history.size(), base.history.size());
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    EXPECT_EQ(r.history[i].flatten(), base.history[i].flatten())
        << "step " << i;
  }
}

// ---- a finding on one rank of a team ---------------------------------------

TEST(KernelCheckFailFast, RacyLaunchOnOneRankAbortsTheTeam) {
  // Three ranks each own a checked Device and barrier after every launch;
  // rank 2's launch number `racy` has every thread write element 0.  The
  // finding throws at the end of that launch and aborts the team: run()
  // reports it for rank 2 and no peer gets past the next barrier.
  constexpr int kRanks = 3;
  constexpr int kLaunches = 4;
  for (const bool pgas_check : {false, true}) {
    for (int racy = 0; racy < kLaunches; ++racy) {
      SCOPED_TRACE("pgas checker " + std::to_string(pgas_check) +
                   ", racy launch " + std::to_string(racy));
      pgas::Runtime rt(kRanks, {.pgas_check = pgas_check});
      std::atomic<int> finished{0};
      const std::string what = fail_fast::error_of([&] {
        rt.run([&](pgas::Rank& rank) {
          Device dev(rank.id(), access_checked());
          DeviceBuffer<int> buf(dev, 8, 0, "team_target");
          for (int k = 0; k < kLaunches; ++k) {
            const bool race = rank.id() == 2 && k == racy;
            dev.parallel_for({1, 8, "k_team_step"}, [&](auto& t) {
              const std::size_t i = race ? 0 : t.thread_idx();
              t.global(buf).write(i, k);
            });
            rank.barrier();
          }
          finished.fetch_add(1);
        });
      });
      fail_fast::expect_root_cause(what, 2, kRanks, "write-write race");
      EXPECT_NE(what.find("k_team_step"), std::string::npos) << what;
      EXPECT_EQ(finished.load(), 0);
    }
  }
}

}  // namespace
}  // namespace simcov::gpusim
