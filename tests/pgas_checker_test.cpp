// PGAS discipline checker: every rule the runtime documents is enforced.
//
// Each negative test runs a deliberately violating SPMD program twice: with
// the checker off it completes silently (the race is invisible because
// "remote" memory is local — exactly why the checker exists), and with the
// checker on Runtime::run() throws an aggregated diagnostic naming the
// rule, ranks, channel and byte range.  Positive tests pin down that the
// blessed patterns — halo exchange, rpc_quiescence, collectives — and the
// full CPU/GPU simulations run violation-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "fail_fast.hpp"
#include "pgas/runtime.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/error.hpp"

namespace simcov::pgas {
namespace {

RuntimeOptions checked() { return {.obs = {.pgas_check = true}}; }
/// Checker off whatever the environment says (the sanitizer test presets
/// export SIMCOV_PGAS_CHECK=1 for the whole suite).
RuntimeOptions unchecked() { return {.obs = {}}; }

/// Runs `body` under the checker and returns the diagnostic ("" if clean).
std::string checked_run_error(int ranks,
                              const std::function<void(Rank&)>& body) {
  Runtime rt(ranks, checked());
  try {
    rt.run(body);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

std::vector<std::byte> bytes(std::size_t n, int fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

// ---------------------------------------------------------------------------
// Rule (a): channel reads must be barrier-separated from incoming puts.
// ---------------------------------------------------------------------------

std::function<void(Rank&)> unbarriered_read_program(std::atomic<bool>& put_done) {
  return [&put_done](Rank& r) {
    r.register_channel(3, 32);
    r.barrier();
    if (r.id() == 0) {
      r.put(1, 3, bytes(8, 0xab), /*offset=*/8);
      put_done.store(true, std::memory_order_release);
    } else {
      spin_until(put_done);  // same epoch, deterministically after the put
      (void)r.channel(3);
    }
    r.barrier();
  };
}

TEST(PgasChecker, UnbarrieredReadIsSilentWithoutChecker) {
  std::atomic<bool> put_done{false};
  Runtime rt(2, unchecked());
  EXPECT_NO_THROW(rt.run(unbarriered_read_program(put_done)));
}

TEST(PgasChecker, UnbarrieredReadCaught) {
  std::atomic<bool> put_done{false};
  const std::string what = checked_run_error(2, unbarriered_read_program(put_done));
  EXPECT_NE(what.find("unbarriered-read"), std::string::npos) << what;
  EXPECT_NE(what.find("channel 3"), std::string::npos) << what;
  EXPECT_NE(what.find("[8,16)"), std::string::npos) << what;
}

TEST(PgasChecker, ReadThenSameEpochPutCaught) {
  // The other temporal order: the owner reads first, the put lands later in
  // the same epoch.  Flagged at the put site.
  std::atomic<bool> read_done{false};
  const std::string what = checked_run_error(2, [&read_done](Rank& r) {
    r.register_channel(4, 16);
    r.barrier();
    if (r.id() == 1) {
      (void)r.channel(4);
      read_done.store(true, std::memory_order_release);
    } else {
      spin_until(read_done);
      r.put(1, 4, bytes(4, 0x11));
    }
    r.barrier();
  });
  EXPECT_NE(what.find("unbarriered-read"), std::string::npos) << what;
  EXPECT_NE(what.find("channel 4"), std::string::npos) << what;
}

TEST(PgasChecker, BarrierSeparatedExchangeIsClean) {
  // The blessed halo pattern: put, barrier, read, barrier — repeated.
  EXPECT_EQ("", checked_run_error(4, [](Rank& r) {
    r.register_channel(0, 64);
    r.barrier();
    for (int step = 0; step < 3; ++step) {
      const int nb = (r.id() + 1) % r.world_size();
      r.put(nb, 0, bytes(64, step));
      r.barrier();
      auto view = r.channel(0);
      EXPECT_EQ(static_cast<int>(view[0]), step);
      r.barrier();
    }
  }));
}

// ---------------------------------------------------------------------------
// Rule (b): no two ranks may put overlapping bytes in one epoch.
// ---------------------------------------------------------------------------

std::function<void(Rank&)> conflicting_puts_program() {
  return [](Rank& r) {
    r.register_channel(0, 64);
    r.barrier();
    if (r.id() == 1) r.put(0, 0, bytes(16, 0x01), /*offset=*/0);
    if (r.id() == 2) r.put(0, 0, bytes(16, 0x02), /*offset=*/8);
    r.barrier();
  };
}

TEST(PgasChecker, ConflictingPutsAreSilentWithoutChecker) {
  Runtime rt(3, unchecked());
  EXPECT_NO_THROW(rt.run(conflicting_puts_program()));
}

TEST(PgasChecker, ConflictingPutsCaught) {
  const std::string what = checked_run_error(3, conflicting_puts_program());
  EXPECT_NE(what.find("conflicting-puts"), std::string::npos) << what;
  EXPECT_NE(what.find("ranks 1 and 2"), std::string::npos) << what;
  EXPECT_NE(what.find("channel 0"), std::string::npos) << what;
}

TEST(PgasChecker, DisjointPutsSameEpochAreClean) {
  EXPECT_EQ("", checked_run_error(3, [](Rank& r) {
    r.register_channel(0, 64);
    r.barrier();
    if (r.id() == 1) r.put(0, 0, bytes(16, 0x01), /*offset=*/0);
    if (r.id() == 2) r.put(0, 0, bytes(16, 0x02), /*offset=*/16);
    r.barrier();
    (void)r.channel(0);
    r.barrier();
  }));
}

TEST(PgasChecker, BarrierSeparatedOverwriteIsClean) {
  // Same bytes, different epochs: a legal ordered overwrite.
  EXPECT_EQ("", checked_run_error(3, [](Rank& r) {
    r.register_channel(0, 32);
    r.barrier();
    if (r.id() == 1) r.put(0, 0, bytes(32, 0x01));
    r.barrier();
    if (r.id() == 2) r.put(0, 0, bytes(32, 0x02));
    r.barrier();
  }));
}

// ---------------------------------------------------------------------------
// Rule (c): RPC queues must be drained before the job ends.
// ---------------------------------------------------------------------------

std::function<void(Rank&)> undrained_rpc_program() {
  return [](Rank& r) {
    if (r.id() == 0) r.rpc(1, [] {});
    r.barrier();  // delivered but never progressed
  };
}

TEST(PgasChecker, UndrainedRpcsAreSilentWithoutChecker) {
  Runtime rt(2, unchecked());
  EXPECT_NO_THROW(rt.run(undrained_rpc_program()));
}

TEST(PgasChecker, UndrainedRpcsCaught) {
  const std::string what = checked_run_error(2, undrained_rpc_program());
  EXPECT_NE(what.find("undrained-rpcs"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
}

TEST(PgasChecker, RpcQuiescenceIsClean) {
  EXPECT_EQ("", checked_run_error(4, [](Rank& r) {
    static std::atomic<int> hits{0};
    for (int t = 0; t < r.world_size(); ++t) {
      if (t != r.id()) r.rpc(t, [] { hits.fetch_add(1); });
    }
    r.rpc_quiescence();
  }));
}

// ---------------------------------------------------------------------------
// Rule (d): collectives must match in sequence, operation and shape.
// ---------------------------------------------------------------------------

std::function<void(Rank&)> collective_op_mismatch_program() {
  return [](Rank& r) {
    if (r.id() == 0) {
      (void)r.allreduce_max(7);
    } else {
      (void)r.allreduce_xor(7);
    }
  };
}

TEST(PgasChecker, CollectiveOpMismatchIsSilentWithoutChecker) {
  Runtime rt(2, unchecked());
  EXPECT_NO_THROW(rt.run(collective_op_mismatch_program()));
}

TEST(PgasChecker, CollectiveOpMismatchCaught) {
  const std::string what = checked_run_error(2, collective_op_mismatch_program());
  EXPECT_NE(what.find("collective-mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("allreduce_max"), std::string::npos) << what;
  EXPECT_NE(what.find("allreduce_xor"), std::string::npos) << what;
}

TEST(PgasChecker, CollectiveShapeMismatchCaught) {
  const std::string what = checked_run_error(2, [](Rank& r) {
    std::vector<double> mine(r.id() == 0 ? 2 : 3, 1.0);
    (void)r.allreduce_sum(std::span<const double>(mine.data(), mine.size()));
  });
  EXPECT_NE(what.find("collective-mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("len 2"), std::string::npos) << what;
  EXPECT_NE(what.find("len 3"), std::string::npos) << what;
}

TEST(PgasChecker, CollectiveAgainstPlainBarrierCaught) {
  // Rank 0 pairs a plain barrier with rank 1's collective: the ranks
  // disagree on how many collectives have run.  Barrier counts still line
  // up (3 each), so the program completes — silently wrong without the
  // checker.
  const std::string what = checked_run_error(2, [](Rank& r) {
    if (r.id() == 0) {
      r.barrier();
      (void)r.allreduce_sum(1.0);
    } else {
      (void)r.allreduce_sum(1.0);
      r.barrier();
    }
  });
  EXPECT_NE(what.find("collective-mismatch"), std::string::npos) << what;
}

TEST(PgasChecker, MatchedCollectivesAreClean) {
  EXPECT_EQ("", checked_run_error(3, [](Rank& r) {
    EXPECT_DOUBLE_EQ(r.allreduce_sum(1.0), 3.0);
    EXPECT_EQ(r.allreduce_max(static_cast<std::uint64_t>(r.id())), 2u);
    std::vector<double> v(5, static_cast<double>(r.id()));
    (void)r.allreduce_sum(std::span<const double>(v.data(), v.size()));
    (void)r.allreduce_xor(1ULL << r.id());
  }));
}

// ---------------------------------------------------------------------------
// Failures under the checker: a recorded violation stays the diagnosis, and
// an aborted job is judged only on what it did before the abort.
// ---------------------------------------------------------------------------

TEST(PgasCheckerFailFast, ViolationIsReportedBeforeALaterRankFailure) {
  const std::string what = checked_run_error(3, [](Rank& r) {
    conflicting_puts_program()(r);
    if (r.id() == 1) throw Error("injected failure");
    r.barrier();
  });
  EXPECT_NE(what.find("conflicting-puts"), std::string::npos) << what;
  EXPECT_NE(what.find("(rank 1 also threw: injected failure)"),
            std::string::npos)
      << what;
}

TEST(PgasCheckerFailFast, AbortedJobIsNotChargedItsUndrainedRpcs) {
  // Rank 2 fails with RPCs queued for it: the job never reached its
  // quiescence, so the failure is the root cause, not undrained-rpcs.
  const std::string what = checked_run_error(3, [](Rank& r) {
    if (r.id() == 2) throw Error("injected failure");
    r.rpc(2, [] {});
    r.rpc_quiescence();
  });
  fail_fast::expect_root_cause(what, 2, 3, "injected failure");
}

TEST(PgasCheckerFailFast, CollectiveMismatchAbortsTeamsOfEverySize) {
  for (int ranks = 2; ranks <= 5; ++ranks) {
    for (int odd = 0; odd < ranks; ++odd) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks, rank " +
                   std::to_string(odd) + " calls allreduce_max");
      const std::string what = checked_run_error(ranks, [odd](Rank& r) {
        for (int s = 0; s < 3; ++s) {
          r.barrier();
          if (s == 1 && r.id() == odd) {
            (void)r.allreduce_max(1);
          } else {
            (void)r.allreduce_sum(1.0);
          }
        }
      });
      EXPECT_NE(what.find("collective-mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find("allreduce_max"), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Enablement and cost.
// ---------------------------------------------------------------------------

TEST(PgasChecker, OffByDefaultOnViaOptionsOrEnv) {
  EXPECT_FALSE(Runtime(2, unchecked()).checking_enabled());
  EXPECT_TRUE(Runtime(2, checked()).checking_enabled());
  // The environment only supplies the options' default (see below).
  EXPECT_EQ(Runtime(2).checking_enabled(),
            obs::Config::from_env().pgas_check);
}

TEST(PgasChecker, EnvEnabledCheckerCatchesViolations) {
  // End to end: SIMCOV_PGAS_CHECK reaches a Runtime built with default
  // options, which is how the sanitizer presets check every Runtime the
  // suite builds.  The caller's value is restored before asserting.
  const char* prev = std::getenv("SIMCOV_PGAS_CHECK");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("SIMCOV_PGAS_CHECK", "1", 1);
  Runtime on(2);
  Runtime explicit_off(2, unchecked());
  ::setenv("SIMCOV_PGAS_CHECK", "0", 1);
  Runtime off(2);
  if (prev != nullptr) {
    ::setenv("SIMCOV_PGAS_CHECK", saved.c_str(), 1);
  } else {
    ::unsetenv("SIMCOV_PGAS_CHECK");
  }
  EXPECT_FALSE(off.checking_enabled());
  EXPECT_FALSE(explicit_off.checking_enabled());
  EXPECT_THROW(on.run(undrained_rpc_program()), Error);
}

// ---------------------------------------------------------------------------
// The real workloads are violation-free: full CPU and GPU simulations under
// the checker reproduce the serial reference bit-for-bit without a single
// diagnostic.  This is the positive half of the acceptance criterion.
// ---------------------------------------------------------------------------

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

TEST(PgasChecker, CpuAndGpuSimulationsRunCleanUnderChecker) {
  const SimParams p = checker_sim_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  ReferenceSim ref(p, foi);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }

  cpu::CpuSimOptions copt;
  copt.num_ranks = 4;
  copt.record_digests = true;
  copt.obs.pgas_check = true;
  cpu::CpuRunResult cres;
  ASSERT_NO_THROW(cres = cpu::run_cpu_sim(p, foi, copt));
  EXPECT_EQ(cres.digests, ref_digests);

  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 4;
  gopt.record_digests = true;
  gopt.obs.pgas_check = true;
  gpu::GpuRunResult gres;
  ASSERT_NO_THROW(gres = gpu::run_gpu_sim(p, foi, gopt));
  EXPECT_EQ(gres.digests, ref_digests);
}

}  // namespace
}  // namespace simcov::pgas
