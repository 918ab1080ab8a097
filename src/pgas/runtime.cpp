#include "pgas/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pgas/checker.hpp"
#include "util/error.hpp"

namespace simcov::pgas {

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

int Rank::world_size() const { return runtime_.num_ranks_; }

void Runtime::team_wait(RankId me) {
  arrivals_.fetch_add(1, std::memory_order_relaxed);
  barrier_->arrive_and_wait();
  // The wait orders these loads after a failing peer's store (it raised
  // the flag before its arrive_and_drop() completed the phase) and after
  // the phase's completion step.
  if (aborted_.load(std::memory_order_relaxed)) throw TeamAborted();
  if (short_.load(std::memory_order_relaxed)) {
    throw Error("barrier-count mismatch: rank " + std::to_string(me) +
                " waited at a team barrier that a rank which had returned "
                "never reached");
  }
}

void Runtime::PhaseEnd::operator()() noexcept {
  // Every arrival of the phase happens before its completion step, and
  // the step before any waiter is released.
  const int arrived = rt->arrivals_.exchange(0, std::memory_order_relaxed);
  if (arrived > 0 && arrived < rt->num_ranks_) {
    rt->short_.store(true, std::memory_order_relaxed);
  }
}

void Rank::barrier() {
  ++stats_.barriers;
  // Wait time is always measured (two clock reads against a syscall-class
  // wait): its per-rank spread is the load-imbalance signal the metrics
  // layer exports, and CommStats carries it whether or not obs is on.
  const obs::Nanos t0 = obs::now_ns();
  runtime_.team_wait(id_);
  const obs::Nanos t1 = obs::now_ns();
  stats_.barrier_wait_ns += static_cast<std::uint64_t>(t1 - t0);
  if (obs::tracer().enabled()) obs::tracer().record("barrier", id_, t0, t1);
  if (auto* ck = runtime_.checker_.get()) ck->on_barrier(id_);
}

void Rank::rpc(RankId target, std::function<void()> fn,
               std::size_t approx_bytes) {
  SIMCOV_REQUIRE(target >= 0 && target < world_size(),
                 "rpc target rank out of range");
  ++stats_.rpcs_sent;
  stats_.rpc_bytes += approx_bytes;
  // Comm-matrix row: counted at the same point as the aggregates so the
  // per-destination sums always equal rpcs_sent / rpc_bytes exactly.
  PeerStats& peer = stats_.peers[target];
  ++peer.rpcs_sent;
  peer.rpc_bytes += approx_bytes;
  Rank& t = *runtime_.ranks_[static_cast<std::size_t>(target)];
  std::lock_guard<std::mutex> lock(t.rpc_mutex_);
  t.rpc_queue_.push_back(std::move(fn));
  if (t.rpc_queue_.size() > t.rpc_queue_peak_) {
    t.rpc_queue_peak_ = t.rpc_queue_.size();
  }
}

void Rank::progress() {
  // Drain in arrival order.  RPCs may themselves enqueue follow-up RPCs to
  // *other* ranks; RPCs targeted at this rank from inside progress() are
  // picked up by the loop as well (queue is re-checked).
  for (;;) {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(rpc_mutex_);
      batch.swap(rpc_queue_);
    }
    if (batch.empty()) break;
    // Queue depth at drain time: the distribution (not just the total RPC
    // count) shows whether tiebreak traffic arrives bursty or steady.
    if (obs::metrics().enabled()) {
      obs::metrics().observe("pgas.rpc_batch", id_,
                             static_cast<double>(batch.size()));
    }
    obs::ScopedSpan span("rpc_drain", id_);
    for (auto& fn : batch) fn();
  }
}

void Rank::rpc_quiescence() {
  barrier();
  progress();
  barrier();
}

std::vector<double> Rank::allreduce_sum(std::span<const double> values) {
  ++stats_.reductions;
  stats_.reduction_bytes += values.size_bytes();
  auto* ck = runtime_.checker_.get();
  if (ck) ck->on_collective_enter(id_, CollectiveOp::kSum, values.size());
  auto& slots = runtime_.collective_slots_;
  auto& mine = slots[static_cast<std::size_t>(id_)];
  mine.assign(values.begin(), values.end());
  barrier();
  if (ck) ck->on_collective_verify(id_);
  std::vector<double> out(values.size(), 0.0);
  for (int r = 0; r < world_size(); ++r) {
    const auto& slot = slots[static_cast<std::size_t>(r)];
    SIMCOV_REQUIRE(slot.size() == values.size(),
                   "allreduce called with mismatched lengths across ranks");
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += slot[i];
  }
  barrier();  // all ranks done reading before slots are reused
  return out;
}

double Rank::allreduce_sum(double value) {
  return allreduce_sum(std::span<const double>(&value, 1))[0];
}

std::uint64_t Rank::allreduce_sum(std::uint64_t value) {
  // Counts in SIMCoV are bounded well below 2^53, so a double-backed sum is
  // exact; enforce the precondition instead of silently losing bits.
  SIMCOV_REQUIRE(value < (1ULL << 53), "allreduce_sum(u64) value too large");
  return static_cast<std::uint64_t>(allreduce_sum(static_cast<double>(value)));
}

std::uint64_t Rank::allreduce_max(std::uint64_t value) {
  ++stats_.reductions;
  stats_.reduction_bytes += sizeof(value);
  auto* ck = runtime_.checker_.get();
  if (ck) ck->on_collective_enter(id_, CollectiveOp::kMax, 1);
  auto& slots = runtime_.collective_slots_;
  // Full 64-bit values (bids) must survive intact: pass the bit pattern.
  slots[static_cast<std::size_t>(id_)].assign(
      1, std::bit_cast<double>(value));
  barrier();
  if (ck) ck->on_collective_verify(id_);
  std::uint64_t out = 0;
  for (int r = 0; r < world_size(); ++r) {
    const auto& slot = slots[static_cast<std::size_t>(r)];
    SIMCOV_REQUIRE(slot.size() == 1, "allreduce_max shape mismatch");
    out = std::max(out, std::bit_cast<std::uint64_t>(slot[0]));
  }
  barrier();
  return out;
}

std::uint64_t Rank::allreduce_xor(std::uint64_t value) {
  ++stats_.reductions;
  stats_.reduction_bytes += sizeof(value);
  auto* ck = runtime_.checker_.get();
  if (ck) ck->on_collective_enter(id_, CollectiveOp::kXor, 1);
  auto& slots = runtime_.collective_slots_;
  slots[static_cast<std::size_t>(id_)].assign(1, std::bit_cast<double>(value));
  barrier();
  if (ck) ck->on_collective_verify(id_);
  std::uint64_t out = 0;
  for (int r = 0; r < world_size(); ++r) {
    const auto& slot = slots[static_cast<std::size_t>(r)];
    SIMCOV_REQUIRE(slot.size() == 1, "allreduce_xor shape mismatch");
    out ^= std::bit_cast<std::uint64_t>(slot[0]);
  }
  barrier();
  return out;
}

void Rank::obs_allgather(std::span<const double> values,
                         std::span<double> all) {
  SIMCOV_REQUIRE(all.size() == values.size() * static_cast<std::size_t>(
                                                   world_size()),
                 "obs_allgather output size mismatch");
  auto& slots = runtime_.collective_slots_;
  slots[static_cast<std::size_t>(id_)].assign(values.begin(), values.end());
  // Raw team waits (not Rank::barrier): no CommStats counting, no trace
  // span, no checker epoch — see the header contract.  The waits still
  // establish the happens-before the slot reuse needs, exactly as in the
  // counted collectives, and still abort with the team.
  runtime_.team_wait(id_);
  for (int r = 0; r < world_size(); ++r) {
    const auto& slot = slots[static_cast<std::size_t>(r)];
    SIMCOV_REQUIRE(slot.size() == values.size(),
                   "obs_allgather called with mismatched lengths across ranks");
    std::copy(slot.begin(), slot.end(),
              all.begin() + static_cast<std::ptrdiff_t>(
                                values.size() * static_cast<std::size_t>(r)));
  }
  runtime_.team_wait(id_);
}

void Rank::broadcast(RankId root, std::span<std::byte> data) {
  SIMCOV_REQUIRE(root >= 0 && root < world_size(),
                 "broadcast root rank out of range");
  ++stats_.broadcasts;
  stats_.broadcast_bytes += data.size();
  auto* ck = runtime_.checker_.get();
  if (ck) ck->on_collective_enter(id_, CollectiveOp::kBroadcast, data.size());
  obs::ScopedSpan span("broadcast", id_);
  auto& buf = runtime_.bcast_buf_;
  if (id_ == root) buf.assign(data.begin(), data.end());
  barrier();
  if (ck) ck->on_collective_verify(id_);
  if (id_ != root && !data.empty()) {
    SIMCOV_REQUIRE(buf.size() == data.size(),
                   "broadcast called with mismatched sizes across ranks");
    std::memcpy(data.data(), buf.data(), data.size());
  }
  barrier();  // all ranks done reading before the buffer is reused
}

void Rank::register_channel(int chan, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  auto [it, inserted] = channels_.try_emplace(chan);
  // Registration is an own-rank operation, so the registry update is safe
  // without extra locking; a re-registration accounts only the size delta.
  if (mem_) mem_->adjust("pgas.channels", it->second.size(), bytes);
  it->second.assign(bytes, std::byte{0});
  (void)inserted;
}

void Rank::put(RankId target, int chan, std::span<const std::byte> data,
               std::size_t offset) {
  SIMCOV_REQUIRE(target >= 0 && target < world_size(),
                 "put target rank out of range");
  ++stats_.puts;
  stats_.put_bytes += data.size();
  // Counted alongside the aggregates (before channel validation, like puts/
  // put_bytes) so matrix row sums stay exactly equal to the aggregates.
  PeerStats& peer = stats_.peers[target];
  ++peer.puts;
  peer.put_bytes += data.size();
  // Manual span (not ScopedSpan): the put span carries the payload size as
  // an arg and a flow-out id that the target's channel read binds to, so
  // Perfetto draws a causality arrow from this put to the remote apply.
  const bool tracing = obs::tracer().enabled();
  const obs::Nanos t0 = tracing ? obs::now_ns() : 0;
  Rank& t = *runtime_.ranks_[static_cast<std::size_t>(target)];
  std::lock_guard<std::mutex> lock(t.channel_mutex_);
  auto it = t.channels_.find(chan);
  SIMCOV_REQUIRE(it != t.channels_.end(),
                 "put into unregistered channel " + std::to_string(chan) +
                     " on rank " + std::to_string(target));
  // Checked as two comparisons so a huge offset cannot wrap the unsigned
  // sum and slip past the bound.
  SIMCOV_REQUIRE(offset <= it->second.size() &&
                     data.size() <= it->second.size() - offset,
                 "put overflows channel " + std::to_string(chan) + " (" +
                     std::to_string(offset) + " + " +
                     std::to_string(data.size()) + " > " +
                     std::to_string(it->second.size()) + " bytes)");
  // Record only validated puts, so a rejected call cannot seed a spurious
  // diagnostic against the target.
  if (auto* ck = runtime_.checker_.get()) {
    ck->on_put(id_, target, chan, offset, data.size());
  }
  std::memcpy(it->second.data() + offset, data.data(), data.size());
  if (tracing) {
    const std::uint64_t flow = obs::next_flow_id();
    t.pending_flows_[chan].push_back(flow);
    obs::TraceEvent ev{"put", id_, t0, obs::now_ns()};
    ev.flow_out = flow;
    ev.add_arg("bytes", static_cast<double>(data.size()));
    ev.add_arg("dst", static_cast<double>(target));
    ev.add_arg("channel", static_cast<double>(chan));
    obs::tracer().record(ev);
  }
}

/// Converts flow ids parked on `chan` by peers' puts into "apply" spans on
/// this rank's track, each bound (flow-in) to the matching put's flow-out.
/// Caller holds channel_mutex_; the tracer has its own lock and never takes
/// a channel mutex, so the nesting order (channel -> tracer) is acyclic and
/// matches the put path.
void Rank::drain_flows_locked(int chan, std::int64_t t0) const {
  const auto pit = pending_flows_.find(chan);
  if (pit == pending_flows_.end() || pit->second.empty()) return;
  const obs::Nanos t1 = obs::now_ns();
  for (const std::uint64_t flow : pit->second) {
    obs::TraceEvent ev{"apply", id_, t0, t1};
    ev.flow_in = flow;
    ev.add_arg("channel", static_cast<double>(chan));
    obs::tracer().record(ev);
  }
  pending_flows_.erase(pit);
}

std::span<const std::byte> Rank::channel(int chan) const {
  if (auto* ck = runtime_.checker_.get()) ck->on_channel_read(id_, chan);
  const bool tracing = obs::tracer().enabled();
  const obs::Nanos t0 = tracing ? obs::now_ns() : 0;
  std::lock_guard<std::mutex> lock(channel_mutex_);
  auto it = channels_.find(chan);
  SIMCOV_REQUIRE(it != channels_.end(),
                 "reading unregistered channel " + std::to_string(chan));
  if (tracing) drain_flows_locked(chan, t0);
  return {it->second.data(), it->second.size()};
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int num_ranks, const RuntimeOptions& options)
    : num_ranks_(num_ranks), check_enabled_(options.obs.pgas_check) {
  SIMCOV_REQUIRE(num_ranks >= 1, "runtime needs at least one rank");
  SIMCOV_REQUIRE(num_ranks <= 4096, "unreasonable rank count");
  collective_slots_.resize(static_cast<std::size_t>(num_ranks));
  last_stats_.resize(static_cast<std::size_t>(num_ranks));
}

Runtime::~Runtime() = default;

void Runtime::run(const std::function<void(Rank&)>& fn) {
  // Fresh per job: Rank objects (clean RPC queues, channels and counters),
  // the checker (epochs and put logs start at zero), the team barrier and
  // its flags.
  ranks_.clear();
  checker_.reset();
  if (check_enabled_) checker_ = std::make_unique<DisciplineChecker>(num_ranks_);
  barrier_ = std::make_unique<std::barrier<PhaseEnd>>(num_ranks_,
                                                      PhaseEnd{this});
  aborted_.store(false, std::memory_order_relaxed);
  arrivals_.store(0, std::memory_order_relaxed);
  short_.store(false, std::memory_order_relaxed);
  for (int r = 0; r < num_ranks_; ++r) {
    // make_unique cannot reach the private constructor; ownership is taken
    // by the unique_ptr in the same expression.
    ranks_.emplace_back(std::unique_ptr<Rank>(new Rank(*this, r)));
  }
  // The job's root cause: the first rank to fail, and what it threw.
  std::atomic<RankId> root{-1};
  std::string root_what;
  const auto abort_team = [&](RankId r, const char* what) {
    RankId none = -1;
    if (root.compare_exchange_strong(none, r)) root_what = what;
    // Raised before the drop, so every peer the drop releases sees it.
    aborted_.store(true, std::memory_order_relaxed);
    barrier_->arrive_and_drop();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &fn, &abort_team] {
      try {
        fn(*ranks_[static_cast<std::size_t>(r)]);
        barrier_->arrive_and_drop();  // finished: peers wait no more for it
      } catch (const TeamAborted&) {
        barrier_->arrive_and_drop();  // releases the ranks still waiting
      } catch (const std::exception& e) {
        abort_team(r, e.what());
      } catch (...) {
        abort_team(r, "a non-std exception");
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < num_ranks_; ++r) {
    last_stats_[static_cast<std::size_t>(r)] =
        ranks_[static_cast<std::size_t>(r)]->stats();
  }
  // Export the (src,dst) communication matrix into the metrics snapshot:
  // one counter per touched pair and field, keyed by destination in the
  // name and by source in the metrics rank dimension.  Done once per job
  // after the join so it costs nothing on the rank critical path.
  if (obs::metrics().enabled()) {
    for (int r = 0; r < num_ranks_; ++r) {
      const CommStats& s = last_stats_[static_cast<std::size_t>(r)];
      for (const auto& [dst, p] : s.peers) {
        const std::string suffix = "_to." + std::to_string(dst);
        auto& m = obs::metrics();
        if (p.puts != 0) {
          m.add("comm.puts" + suffix, r, static_cast<double>(p.puts));
          m.add("comm.put_bytes" + suffix, r,
                static_cast<double>(p.put_bytes));
        }
        if (p.rpcs_sent != 0) {
          m.add("comm.rpcs" + suffix, r, static_cast<double>(p.rpcs_sent));
          m.add("comm.rpc_bytes" + suffix, r,
                static_cast<double>(p.rpc_bytes));
        }
      }
    }
  }
  const RankId failed = root.load(std::memory_order_relaxed);
  if (checker_) {
    // An aborted job stops mid-superstep with RPCs still queued by
    // construction; the undrained-rpcs rule judges finished jobs only.
    for (int r = 0; failed < 0 && r < num_ranks_; ++r) {
      Rank& rank = *ranks_[static_cast<std::size_t>(r)];
      std::lock_guard<std::mutex> lock(rank.rpc_mutex_);
      checker_->on_job_end(r, rank.rpc_queue_.size());
    }
    if (!checker_->clean()) {
      // The discipline report is the diagnosis; a rank exception (if any)
      // is usually a downstream symptom, so it is appended, not preferred.
      std::string what = checker_->report();
      if (failed >= 0) {
        what += "\n  (rank " + std::to_string(failed) + " also threw: " +
                root_what + ")";
      }
      throw Error(what);
    }
  }
  if (failed >= 0) {
    throw Error("rank " + std::to_string(failed) + ": " + root_what);
  }
}

CommStats Runtime::total_stats() const {
  CommStats total;
  for (const auto& s : last_stats_) total += s;
  return total;
}

const CommStats& Runtime::rank_stats(RankId r) const {
  SIMCOV_REQUIRE(r >= 0 && r < num_ranks_, "rank id out of range");
  return last_stats_[static_cast<std::size_t>(r)];
}

}  // namespace simcov::pgas
