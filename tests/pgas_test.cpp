// PGAS runtime: barriers, RPC delivery and quiescence, collectives,
// one-sided channels, counters, misuse rejection, and the failure policy
// (a rank that throws aborts its team).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "fail_fast.hpp"
#include "pgas/runtime.hpp"
#include "util/error.hpp"

namespace simcov::pgas {
namespace {

TEST(Pgas, RunsEveryRankOnce) {
  Runtime rt(6);
  std::vector<std::atomic<int>> hits(6);
  rt.run([&](Rank& r) { hits[static_cast<std::size_t>(r.id())]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Pgas, WorldSizeAndIds) {
  Runtime rt(3);
  rt.run([&](Rank& r) {
    EXPECT_EQ(r.world_size(), 3);
    EXPECT_GE(r.id(), 0);
    EXPECT_LT(r.id(), 3);
  });
}

TEST(Pgas, RpcQuiescenceDeliversAll) {
  Runtime rt(4);
  std::vector<std::atomic<int>> inbox(4);
  rt.run([&](Rank& r) {
    // Everyone RPCs everyone else.
    for (int t = 0; t < r.world_size(); ++t) {
      if (t == r.id()) continue;
      auto* slot = &inbox[static_cast<std::size_t>(t)];
      r.rpc(t, [slot] { slot->fetch_add(1); });
    }
    r.rpc_quiescence();
    EXPECT_EQ(inbox[static_cast<std::size_t>(r.id())].load(), 3);
  });
}

TEST(Pgas, RpcsRunOnTargetDuringProgress) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    static std::atomic<int> executed{0};
    if (r.id() == 0) {
      r.rpc(1, [] { executed.fetch_add(1); });
    }
    r.rpc_quiescence();
    EXPECT_EQ(executed.load(), 1);
    r.barrier();
  });
}

TEST(Pgas, AllreduceSumScalar) {
  Runtime rt(5);
  rt.run([&](Rank& r) {
    const double total = r.allreduce_sum(static_cast<double>(r.id() + 1));
    EXPECT_DOUBLE_EQ(total, 15.0);  // 1+2+3+4+5
    const std::uint64_t t2 = r.allreduce_sum(static_cast<std::uint64_t>(2));
    EXPECT_EQ(t2, 10u);
  });
}

TEST(Pgas, AllreduceSumVector) {
  Runtime rt(3);
  rt.run([&](Rank& r) {
    std::vector<double> mine = {1.0, static_cast<double>(r.id()), 0.5};
    const auto out = r.allreduce_sum(
        std::span<const double>(mine.data(), mine.size()));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 3.0);  // 0+1+2
    EXPECT_DOUBLE_EQ(out[2], 1.5);
  });
}

TEST(Pgas, AllreduceMaxKeepsFull64Bits) {
  Runtime rt(4);
  rt.run([&](Rank& r) {
    // Values that a double round-trip would corrupt.
    const std::uint64_t mine = 0xdeadbeef00000001ULL + static_cast<std::uint64_t>(r.id());
    const std::uint64_t mx = r.allreduce_max(mine);
    EXPECT_EQ(mx, 0xdeadbeef00000004ULL);
  });
}

TEST(Pgas, AllreduceXor) {
  Runtime rt(4);
  rt.run([&](Rank& r) {
    const std::uint64_t mine = 1ULL << (r.id() * 8);
    EXPECT_EQ(r.allreduce_xor(mine), 0x01010101ULL);
  });
}

TEST(Pgas, AllreduceSumU64RejectsHugeValues) {
  Runtime rt(1);
  rt.run([&](Rank& r) {
    EXPECT_THROW(r.allreduce_sum(static_cast<std::uint64_t>(1) << 60), Error);
  });
}

TEST(Pgas, BroadcastCopiesRootBytes) {
  Runtime rt(4);
  rt.run([&](Rank& r) {
    std::vector<std::byte> buf(8);
    if (r.id() == 2) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(i + 1);
      }
    }
    r.broadcast(2, buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(static_cast<int>(buf[i]), static_cast<int>(i + 1));
    }
    const std::uint64_t v = r.broadcast_value<std::uint64_t>(
        0, r.id() == 0 ? 0xabcdefULL : 0ULL);
    EXPECT_EQ(v, 0xabcdefULL);
  });
}

TEST(Pgas, BroadcastBadRootRejected) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    std::vector<std::byte> buf(4);
    EXPECT_THROW(r.broadcast(5, buf), Error);
    EXPECT_THROW(r.broadcast(-1, buf), Error);
  });
}

TEST(Pgas, BroadcastCountsTraffic) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    std::vector<std::byte> buf(16);
    r.broadcast(0, buf);
    EXPECT_EQ(r.stats().broadcasts, 1u);
    EXPECT_EQ(r.stats().broadcast_bytes, 16u);
  });
  const CommStats total = rt.total_stats();
  EXPECT_EQ(total.broadcasts, 2u);
  EXPECT_EQ(total.broadcast_bytes, 32u);
}

TEST(Pgas, BarrierWaitIsMeasured) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    // Rank 1 arrives late, so rank 0 must accumulate wait time.
    if (r.id() == 1) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20);
      while (std::chrono::steady_clock::now() < until) {}
    }
    r.barrier();
  });
  EXPECT_GE(rt.rank_stats(0).barrier_wait_ns, 1'000'000u);  // >= 1 ms
}

TEST(Pgas, ChannelsPutAndRead) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    r.register_channel(7, 16);
    r.barrier();
    std::vector<std::byte> data(8);
    std::memset(data.data(), 0x40 + r.id(), data.size());
    r.put(1 - r.id(), 7, data, /*offset=*/4);
    r.barrier();
    auto view = r.channel(7);
    ASSERT_EQ(view.size(), 16u);
    EXPECT_EQ(static_cast<int>(view[4]), 0x40 + (1 - r.id()));
    EXPECT_EQ(static_cast<int>(view[0]), 0);  // untouched prefix
  });
}

TEST(Pgas, PutMisuseRejected) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    r.register_channel(1, 8);
    r.barrier();
    std::vector<std::byte> data(9);
    if (r.id() == 0) {
      EXPECT_THROW(r.put(1, 1, data), Error);       // overflow
      EXPECT_THROW(r.put(1, 99, data), Error);      // unregistered channel
      EXPECT_THROW(r.put(5, 1, data), Error);       // bad rank
      EXPECT_THROW((void)r.channel(42), Error);     // unregistered read
    }
    r.barrier();
  });
}

TEST(Pgas, PutHugeOffsetRejectedNotWrapped) {
  // Regression: offset + size used to be summed before the bound check, so
  // an offset near SIZE_MAX wrapped around and the copy went out of bounds.
  Runtime rt(2);
  rt.run([&](Rank& r) {
    r.register_channel(1, 8);
    r.barrier();
    std::vector<std::byte> data(2);
    if (r.id() == 0) {
      constexpr std::size_t huge = std::numeric_limits<std::size_t>::max();
      EXPECT_THROW(r.put(1, 1, data, huge), Error);
      EXPECT_THROW(r.put(1, 1, data, huge - 1), Error);
      EXPECT_THROW(r.put(1, 1, data, 7), Error);   // one past the end
      EXPECT_NO_THROW(r.put(1, 1, data, 6));       // exactly fits
    }
    r.barrier();
  });
}

TEST(Pgas, RpcToBadRankRejected) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    EXPECT_THROW(r.rpc(7, [] {}), Error);
  });
}

TEST(Pgas, CountersTrackTraffic) {
  Runtime rt(2);
  rt.run([&](Rank& r) {
    r.register_channel(0, 64);
    r.barrier();
    std::vector<std::byte> data(64);
    r.put(1 - r.id(), 0, data);
    r.rpc(1 - r.id(), [] {}, /*approx_bytes=*/100);
    r.rpc_quiescence();
    r.allreduce_sum(1.0);
    EXPECT_EQ(r.stats().puts, 1u);
    EXPECT_EQ(r.stats().put_bytes, 64u);
    EXPECT_EQ(r.stats().rpcs_sent, 1u);
    EXPECT_EQ(r.stats().rpc_bytes, 100u);
    EXPECT_GE(r.stats().barriers, 3u);
    EXPECT_EQ(r.stats().reductions, 1u);
  });
  const CommStats total = rt.total_stats();
  EXPECT_EQ(total.puts, 2u);
  EXPECT_EQ(total.rpcs_sent, 2u);
  EXPECT_EQ(rt.rank_stats(0).puts, 1u);
}

TEST(Pgas, StatsSinceSnapshot) {
  CommStats a;
  a.puts = 5;
  a.put_bytes = 100;
  CommStats snap = a;
  a.puts = 9;
  a.put_bytes = 160;
  const CommStats d = a.since(snap);
  EXPECT_EQ(d.puts, 4u);
  EXPECT_EQ(d.put_bytes, 60u);
}

TEST(Pgas, StatsSinceAndAccumulateCoverBroadcastAndWait) {
  CommStats a;
  a.broadcasts = 3;
  a.broadcast_bytes = 300;
  a.barrier_wait_ns = 50;
  CommStats snap = a;
  a.broadcasts = 5;
  a.broadcast_bytes = 420;
  a.barrier_wait_ns = 90;
  const CommStats d = a.since(snap);
  EXPECT_EQ(d.broadcasts, 2u);
  EXPECT_EQ(d.broadcast_bytes, 120u);
  EXPECT_EQ(d.barrier_wait_ns, 40u);
  CommStats sum;
  sum += a;
  sum += d;
  EXPECT_EQ(sum.broadcasts, 7u);
  EXPECT_EQ(sum.broadcast_bytes, 540u);
  EXPECT_EQ(sum.barrier_wait_ns, 130u);
}

TEST(Pgas, StatsRoundTripEveryFieldThroughAccumulateAndSince) {
  // Every CommStats field — including the per-peer matrix — must survive
  // the += / since() round trip, or bench reports silently drop traffic.
  CommStats a;
  a.rpcs_sent = 1;
  a.rpc_bytes = 10;
  a.puts = 2;
  a.put_bytes = 20;
  a.barriers = 3;
  a.barrier_wait_ns = 30;
  a.reductions = 4;
  a.reduction_bytes = 40;
  a.broadcasts = 5;
  a.broadcast_bytes = 50;
  a.peers[1] = PeerStats{1, 10, 2, 20};
  const CommStats snap = a;

  CommStats b = a;
  b.rpcs_sent += 7;
  b.rpc_bytes += 70;
  b.puts += 8;
  b.put_bytes += 80;
  b.barriers += 9;
  b.barrier_wait_ns += 90;
  b.reductions += 10;
  b.reduction_bytes += 100;
  b.broadcasts += 11;
  b.broadcast_bytes += 110;
  b.peers[1] += PeerStats{7, 70, 8, 80};
  b.peers[3] = PeerStats{2, 6, 1, 5};

  const CommStats d = b.since(snap);
  EXPECT_EQ(d.rpcs_sent, 7u);
  EXPECT_EQ(d.rpc_bytes, 70u);
  EXPECT_EQ(d.puts, 8u);
  EXPECT_EQ(d.put_bytes, 80u);
  EXPECT_EQ(d.barriers, 9u);
  EXPECT_EQ(d.barrier_wait_ns, 90u);
  EXPECT_EQ(d.reductions, 10u);
  EXPECT_EQ(d.reduction_bytes, 100u);
  EXPECT_EQ(d.broadcasts, 11u);
  EXPECT_EQ(d.broadcast_bytes, 110u);
  ASSERT_EQ(d.peers.size(), 2u);
  EXPECT_EQ(d.peers.at(1), (PeerStats{7, 70, 8, 80}));
  EXPECT_EQ(d.peers.at(3), (PeerStats{2, 6, 1, 5}));

  // Accumulating the delta back onto the snapshot restores the total.
  CommStats sum = snap;
  sum += d;
  EXPECT_EQ(sum.rpcs_sent, b.rpcs_sent);
  EXPECT_EQ(sum.put_bytes, b.put_bytes);
  EXPECT_EQ(sum.peers, b.peers);

  // An unchanged peer produces no entry in the delta.
  CommStats c = b;
  c.barriers += 1;
  EXPECT_TRUE(c.since(b).peers.empty());
}

TEST(Pgas, PeerMatrixRowSumsEqualAggregates) {
  // Four ranks, deliberately asymmetric traffic: each rank puts to its
  // right neighbour and RPCs every other rank a rank-dependent amount.
  constexpr int kRanks = 4;
  Runtime rt(kRanks);
  rt.run([&](Rank& r) {
    r.register_channel(0, 256);
    r.barrier();
    const int right = (r.id() + 1) % kRanks;
    std::vector<std::byte> data(static_cast<std::size_t>(16 + 8 * r.id()));
    r.put(right, 0, data);
    if (r.id() == 0) r.put(right, 0, data);  // extra edge weight on 0->1
    for (int dst = 0; dst < kRanks; ++dst) {
      if (dst == r.id()) continue;
      r.rpc(dst, [] {}, /*approx_bytes=*/static_cast<std::size_t>(10 + dst));
    }
    r.rpc_quiescence();
  });
  for (int src = 0; src < kRanks; ++src) {
    const CommStats s = rt.rank_stats(src);
    PeerStats row_sum;
    for (const auto& [dst, p] : s.peers) {
      EXPECT_NE(dst, src) << "self-edge in comm matrix";
      row_sum += p;
    }
    // The invariant the bench-report comm matrix relies on: per-peer
    // traffic sums exactly to this rank's aggregate counters.
    EXPECT_EQ(row_sum.puts, s.puts) << "rank " << src;
    EXPECT_EQ(row_sum.put_bytes, s.put_bytes) << "rank " << src;
    EXPECT_EQ(row_sum.rpcs_sent, s.rpcs_sent) << "rank " << src;
    EXPECT_EQ(row_sum.rpc_bytes, s.rpc_bytes) << "rank " << src;
  }
  // Spot-check one edge: rank 0 put twice to rank 1, others once.
  EXPECT_EQ(rt.rank_stats(0).peers.at(1).puts, 2u);
  EXPECT_EQ(rt.rank_stats(1).peers.at(2).puts, 1u);
  EXPECT_EQ(rt.rank_stats(2).peers.at(0).rpcs_sent, 1u);
  EXPECT_EQ(rt.rank_stats(2).peers.at(0).rpc_bytes, 10u);
}

TEST(Pgas, RunCanBeRepeated) {
  Runtime rt(3);
  for (int i = 0; i < 3; ++i) {
    rt.run([&](Rank& r) {
      // Channels don't persist between jobs.
      EXPECT_THROW((void)r.channel(0), Error);
      r.register_channel(0, 4);
      EXPECT_EQ(r.allreduce_sum(1.0), 3.0);
    });
  }
}

TEST(Pgas, RankExceptionPropagates) {
  Runtime rt(1);
  EXPECT_THROW(rt.run([](Rank&) { throw Error("boom"); }), Error);
}

TEST(Pgas, InvalidRankCountRejected) {
  EXPECT_THROW(Runtime(0), Error);
  EXPECT_THROW(Runtime(-3), Error);
}

// ---- fail fast: a rank that throws aborts its team --------------------------

/// Where the injected failure strikes its rank: before a plain barrier,
/// inside a collective (an allreduce argument the collective rejects), or
/// inside an RPC that runs during rpc_quiescence().
enum class FailSite { kBarrier, kCollective, kRpc };

constexpr int kSupersteps = 4;

/// kSupersteps supersteps of barrier, collective, RPC and broadcast
/// traffic; rank `fail_rank` fails at `site` in superstep `fail_step`.
void failing_program(Rank& r, FailSite site, int fail_rank, int fail_step) {
  const auto world = static_cast<std::uint64_t>(r.world_size());
  for (int s = 0; s < kSupersteps; ++s) {
    const bool here = r.id() == fail_rank && s == fail_step;
    if (here && site == FailSite::kBarrier) throw Error("injected failure");
    r.barrier();
    // allreduce_sum(u64) rejects values of 2^53 and above.
    const std::uint64_t v =
        here && site == FailSite::kCollective ? 1ULL << 53 : 1;
    EXPECT_EQ(r.allreduce_sum(v), world);
    // The RPC runs on its target, which fails while its peers wait in the
    // quiescence's second barrier.
    const int target = (r.id() + 1) % r.world_size();
    const bool poison =
        site == FailSite::kRpc && target == fail_rank && s == fail_step;
    r.rpc(target, [poison] {
      if (poison) throw Error("injected failure");
    });
    r.rpc_quiescence();
    EXPECT_EQ(r.broadcast_value(0, s), s);
  }
}

/// Every (team size 1-5, failing rank, superstep, checker on/off) case of
/// `site` ends with the failing rank's `cause`.
void expect_every_failure_aborts(FailSite site, const std::string& cause) {
  for (const bool checked : {false, true}) {
    for (int ranks = 1; ranks <= 5; ++ranks) {
      for (int fail_rank = 0; fail_rank < ranks; ++fail_rank) {
        for (int step = 0; step < kSupersteps; ++step) {
          SCOPED_TRACE("checker " + std::to_string(checked) + ", " +
                       std::to_string(ranks) + " ranks, rank " +
                       std::to_string(fail_rank) + " fails in superstep " +
                       std::to_string(step));
          Runtime rt(ranks, {.pgas_check = checked});
          const std::string what = fail_fast::error_of([&] {
            rt.run([&](Rank& r) {
              failing_program(r, site, fail_rank, step);
            });
          });
          fail_fast::expect_root_cause(what, fail_rank, ranks, cause);
        }
      }
    }
  }
}

TEST(PgasFailFast, ThrowBeforeABarrierAbortsTheTeam) {
  expect_every_failure_aborts(FailSite::kBarrier, "injected failure");
}

TEST(PgasFailFast, ThrowInsideACollectiveAbortsTheTeam) {
  expect_every_failure_aborts(FailSite::kCollective,
                              "allreduce_sum(u64) value too large");
}

TEST(PgasFailFast, ThrowInsideAnRpcAbortsTheTeam) {
  expect_every_failure_aborts(FailSite::kRpc, "injected failure");
}

TEST(PgasFailFast, ThrowWhilePeersWaitInObsAllgatherAbortsTheTeam) {
  Runtime rt(4);
  const std::string what = fail_fast::error_of([&] {
    rt.run([](Rank& r) {
      if (r.id() == 3) throw Error("injected failure");
      const double mine = r.id();
      std::vector<double> all(4);
      r.obs_allgather({&mine, 1}, all);
    });
  });
  fail_fast::expect_root_cause(what, 3, 4, "injected failure");
}

TEST(PgasFailFast, ExtraBarrierAfterPeersReturnedFailsItsRank) {
  // Rank `extra` waits at one team barrier more than its peers call: their
  // return releases it, and it fails with a barrier-count mismatch
  // instead of waiting forever.
  for (const bool checked : {false, true}) {
    for (int ranks = 2; ranks <= 5; ++ranks) {
      for (int extra = 0; extra < ranks; ++extra) {
        for (const int common : {0, 3}) {
          SCOPED_TRACE("checker " + std::to_string(checked) + ", " +
                       std::to_string(ranks) + " ranks, rank " +
                       std::to_string(extra) + " after " +
                       std::to_string(common) + " common barriers");
          Runtime rt(ranks, {.pgas_check = checked});
          const std::string what = fail_fast::error_of([&] {
            rt.run([&](Rank& r) {
              for (int k = 0; k < common; ++k) r.barrier();
              if (r.id() == extra) r.barrier();
            });
          });
          fail_fast::expect_root_cause(what, extra, ranks,
                                       "barrier-count mismatch");
        }
      }
    }
  }
}

TEST(PgasFailFast, RankReturningBeforeItsPeersBarrierFailsTheJob) {
  // Rank `early` returns one barrier (or one collective) before its peers:
  // the peers it releases fail with a barrier-count mismatch, and run()
  // names one of them.
  for (const bool checked : {false, true}) {
    for (const bool collective : {false, true}) {
      for (int ranks = 2; ranks <= 5; ++ranks) {
        for (int early = 0; early < ranks; ++early) {
          SCOPED_TRACE("checker " + std::to_string(checked) + ", " +
                       std::to_string(ranks) + " ranks, rank " +
                       std::to_string(early) + " returns early" +
                       (collective ? " from a collective" : ""));
          Runtime rt(ranks, {.pgas_check = checked});
          const std::string what = fail_fast::error_of([&] {
            rt.run([&](Rank& r) {
              r.barrier();
              if (r.id() == early) return;
              if (collective) {
                (void)r.allreduce_sum(1.0);
              } else {
                r.barrier();
              }
            });
          });
          EXPECT_NE(what.find("barrier-count mismatch"), std::string::npos)
              << what;
          EXPECT_EQ(what.rfind("rank ", 0), 0u) << what;
          EXPECT_NE(what.rfind("rank " + std::to_string(early) + ":", 0), 0u)
              << what;
          EXPECT_EQ(what.find(TeamAborted().what()), std::string::npos)
              << what;
        }
      }
    }
  }
}

TEST(PgasFailFast, RuntimeRunsACleanJobAfterAnAbortedOne) {
  // Every rank of the aborted job drops out of its barrier, so the next job
  // needs a fresh barrier and a cleared abort flag.
  Runtime rt(4);
  const std::string what = fail_fast::error_of([&] {
    rt.run([](Rank& r) {
      r.barrier();
      if (r.id() == 2) throw Error("injected failure");
      (void)r.allreduce_sum(1.0);
    });
  });
  fail_fast::expect_root_cause(what, 2, 4, "injected failure");

  rt.run([](Rank& r) {
    r.barrier();
    EXPECT_EQ(r.allreduce_sum(static_cast<double>(r.id())), 6.0);
    EXPECT_EQ(r.allreduce_max(10 * static_cast<std::uint64_t>(r.id())), 30u);
    r.barrier();
  });
  for (int r = 0; r < 4; ++r) {
    // Two plain barriers plus two per collective.
    EXPECT_EQ(rt.rank_stats(r).barriers, 6u);
    EXPECT_EQ(rt.rank_stats(r).reductions, 2u);
  }
}

}  // namespace
}  // namespace simcov::pgas
