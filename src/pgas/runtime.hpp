#pragma once
// A UPC++-like PGAS runtime, rank-per-thread.
//
// The original SIMCoV uses UPC++ [Bachan et al., IPDPS'19] for interprocess
// communication: asynchronous remote procedure calls (RPCs), barriers,
// collective reductions, and (in SIMCoV-GPU) direct device-to-device bulk
// copies.  This substrate provides the same primitives with the same
// bulk-synchronous usage discipline, executing every rank as a std::thread
// inside one process.  It is a real working runtime (all synchronization is
// implemented, misuse is detected), not a mock; the only difference from
// UPC++ is that "remote" memory lives in the same address space, which is
// why every primitive also *counts* its traffic (see CommStats) for the
// performance model to price as network communication.
//
// Usage discipline (matches how SIMCoV uses UPC++):
//   * RPCs are enqueued on the target and run only when the target calls
//     progress().  `rpc_quiescence()` = barrier, drain, barrier — the
//     pattern SIMCoV-CPU uses between simulation phases.
//   * Bulk puts land in pre-registered channels on the target; targets read
//     channels only after a barrier (halo-exchange discipline).
//   * Collectives are barrier-based with a deterministic rank-order combine,
//     so reductions are bitwise reproducible run-to-run.
//
// The discipline is *checkable*: construct the Runtime with
// obs::Config{.pgas_check = true} (the default Config reads
// SIMCOV_PGAS_CHECK=1 from the environment) and every violation —
// unbarriered channel read, conflicting same-epoch puts, undrained RPC
// queues, mismatched collectives — is recorded and reported as one
// aggregated simcov::Error when run() returns.  See pgas/checker.hpp.  When
// checking is off, each primitive pays a single null-pointer branch.
//
// Failure policy (as a failed UPC++ process takes its job down): a rank
// that throws aborts its team.  Every team wait then throws TeamAborted on
// the peers, and run() throws the first failure, naming its rank.  A rank
// whose function returns drops out of the team barrier; a peer that this
// releases from a wait (the ranks disagree on how many barriers the job
// has) throws a barrier-count mismatch, which aborts the team the same
// way, instead of waiting forever.

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/config.hpp"
#include "obs/memscope.hpp"
#include "pgas/comm_stats.hpp"
#include "util/error.hpp"

namespace simcov::pgas {

using RankId = int;

class DisciplineChecker;
class Runtime;

/// Thrown by the team waits of a job a failed peer aborted; run() reports
/// the peer's exception, the root cause, never this.
struct TeamAborted : Error {
  TeamAborted() : Error("team aborted by a failed peer rank") {}
};

/// Handle given to each rank's SPMD function.  Not copyable; a Rank is valid
/// only for the duration of Runtime::run().
class Rank {
 public:
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  RankId id() const { return id_; }
  int world_size() const;

  /// Blocks until every rank reaches the barrier; throws TeamAborted if a
  /// peer failed.
  void barrier();

  /// Enqueues `fn` to execute on rank `target` during its next progress().
  /// `approx_bytes` is the modeled payload size for the cost model.
  void rpc(RankId target, std::function<void()> fn,
           std::size_t approx_bytes = 64);

  /// Runs all RPCs queued for this rank (in arrival order).
  void progress();

  /// barrier(); progress(); barrier() — guarantees every RPC issued before
  /// the call has executed on its target when the call returns.
  void rpc_quiescence();

  /// Collective reductions over all ranks.  Every rank must call with the
  /// same shape; results are identical on all ranks (rank-order combine).
  double allreduce_sum(double value);
  std::uint64_t allreduce_sum(std::uint64_t value);
  std::uint64_t allreduce_max(std::uint64_t value);
  std::uint64_t allreduce_xor(std::uint64_t value);
  /// Element-wise sum of equal-length vectors (statistics reductions).
  std::vector<double> allreduce_sum(std::span<const double> values);

  /// Observability-only allgather: every rank contributes `values` (same
  /// length on all ranks) and receives the concatenation, rank-major, in
  /// `all` (size world_size()*values.size()).  Unlike the reductions this
  /// primitive bumps no CommStats counters, records no trace span and is
  /// invisible to the discipline checker: it exists so instrumentation
  /// (obs/critpath.hpp) can piggyback on the collective path without
  /// perturbing the counters, modeled costs or checker epochs the run
  /// would have produced with the instrumentation off.
  void obs_allgather(std::span<const double> values, std::span<double> all);

  /// Collective broadcast: `root`'s bytes are copied into every rank's
  /// `data`.  All ranks (including root) must call with the same root and
  /// the same size; root's buffer is left untouched.  Counted in CommStats
  /// as one broadcast participation of data.size() bytes per rank, which
  /// the cost model prices as a log2(P) collective (broadcasts were
  /// previously invisible to the perfmodel).
  void broadcast(RankId root, std::span<std::byte> data);

  /// Convenience broadcast of one trivially copyable value.
  template <typename T>
  T broadcast_value(RankId root, T value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "broadcast_value requires a trivially copyable type");
    broadcast(root, std::as_writable_bytes(std::span<T>(&value, 1)));
    return value;
  }

  /// Registers a landing zone `channel` of `bytes` bytes on this rank.
  /// Peers put() into it; this rank reads it after a barrier.
  void register_channel(int channel, std::size_t bytes);

  /// One-sided bulk copy into `target`'s channel at byte offset `offset`.
  /// The caller must have barrier-separated this put from the target's
  /// reads; size/bounds misuse throws.
  void put(RankId target, int channel, std::span<const std::byte> data,
           std::size_t offset = 0);

  /// This rank's view of its own channel (read after the exchange barrier).
  std::span<const std::byte> channel(int channel) const;

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// MemScope registry of this rank's host-side storage (channel landing
  /// zones; non-null only while the memscope process flag is raised at
  /// construction).  Touched only by the owning rank thread —
  /// peers putting into this rank's channels never reach the registry.
  obs::MemScope* memscope() { return mem_.get(); }

  /// High-water mark of this rank's RPC queue length (entries, not bytes).
  /// Always tracked — one compare under the mutex the enqueue already
  /// holds — so the memory report can charge queue storage at harvest time.
  std::size_t rpc_queue_peak() const {
    std::lock_guard<std::mutex> lock(rpc_mutex_);
    return rpc_queue_peak_;
  }

 private:
  friend class Runtime;
  Rank(Runtime& rt, RankId id) : runtime_(rt), id_(id) {
    if (obs::memscope_on()) mem_ = std::make_unique<obs::MemScope>();
  }

  Runtime& runtime_;
  RankId id_;
  CommStats stats_;

  mutable std::mutex rpc_mutex_;
  std::vector<std::function<void()>> rpc_queue_;
  std::size_t rpc_queue_peak_ = 0;  ///< guarded by rpc_mutex_
  std::unique_ptr<obs::MemScope> mem_;

  // Guards the channel map against concurrent lookups while a peer's put is
  // in flight; mutable so the const read path locks it too.
  mutable std::mutex channel_mutex_;
  std::map<int, std::vector<std::byte>> channels_;
  // Trace flow ids of puts landed in each channel since its last read.
  // Only populated while the tracer is enabled; drained (and turned into
  // "apply" spans with flow-in bindings) by the next channel() call.
  // Guarded by channel_mutex_ like the channels.
  mutable std::map<int, std::vector<std::uint64_t>> pending_flows_;

  void drain_flows_locked(int chan, std::int64_t t0) const;
};

/// Owns the rank team.  Construct with the rank count, then call run() with
/// the SPMD function; run() may be called repeatedly (each call is a fresh
/// "job" on the same team size).  `obs.pgas_check` enables the discipline
/// checker (pgas/checker.hpp) for every job this runtime executes; the
/// default is the parsed environment (SIMCOV_PGAS_CHECK).
class Runtime {
 public:
  explicit Runtime(int num_ranks,
                   const obs::Config& obs = obs::Config::from_env());
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int num_ranks() const { return num_ranks_; }

  /// True when the discipline checker instruments this runtime's jobs
  /// (obs::Config::pgas_check).
  bool checking_enabled() const { return check_enabled_; }

  /// Executes `fn(rank)` on every rank in its own thread and joins.  The
  /// first rank to throw aborts the team (see the file comment); after the
  /// join run() throws the discipline checker's report if it has one,
  /// otherwise that first failure as a simcov::Error naming its rank.
  void run(const std::function<void(Rank&)>& fn);

  /// Sum of all ranks' counters from the most recent run().
  CommStats total_stats() const;
  /// Per-rank counters from the most recent run().
  const CommStats& rank_stats(RankId r) const;

 private:
  friend class Rank;

  /// The one team wait: arrive, wait, and throw TeamAborted if the team
  /// was aborted, or a barrier-count mismatch naming rank `me` if the
  /// phase ended short of the whole team.
  void team_wait(RankId me);

  /// The team barrier's completion step.  A phase that some but not all
  /// ranks reached through team_wait ended because ranks that had returned
  /// dropped out (or, in an aborted job, failed ones): it marks the job
  /// short.  A phase of drops alone (the job's end) is not short.
  struct PhaseEnd {
    Runtime* rt;
    void operator()() noexcept;
  };

  int num_ranks_;
  bool check_enabled_ = false;
  // All reset per job: a rank's arrive_and_drop() lowers the barrier's
  // count for good; a failing rank raises aborted_ before dropping.
  std::unique_ptr<std::barrier<PhaseEnd>> barrier_;
  std::atomic<bool> aborted_{false};
  std::atomic<int> arrivals_{0};  ///< team_wait arrivals this phase
  std::atomic<bool> short_{false};  ///< a phase ended short (PhaseEnd)

  // Collective scratch: one slot per rank.  Writes (each rank to its own
  // slot) and cross-rank reads are separated by the collective's barriers,
  // which establish the necessary happens-before; no lock is needed.
  std::vector<std::vector<double>> collective_slots_;

  // Broadcast scratch: only the root writes (before the exchange barrier),
  // peers read between the barriers — same happens-before argument as the
  // collective slots.
  std::vector<std::byte> bcast_buf_;

  // Non-null for the duration of run() when checking is enabled; recreated
  // fresh per job alongside the Rank objects.
  std::unique_ptr<DisciplineChecker> checker_;

  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<CommStats> last_stats_;
};

}  // namespace simcov::pgas
