#pragma once
// Runtime discipline checker for the PGAS layer.
//
// The runtime's correctness contract (runtime.hpp) is a documented
// bulk-synchronous discipline: puts must be barrier-separated from the
// target's channel reads, conflicting writers must be resolved before the
// bytes race (the paper's §3.1 bid protocol exists for exactly this), RPC
// queues must be drained before a job ends, and collectives must be called
// with identical shape on every rank.  On real UPC++ a violation is a
// silent data race; in this rank-per-thread substitute it is usually an
// *invisible* race because "remote" memory is local.  The checker makes
// every violation a hard diagnostic.
//
// Mechanism: barrier-epoch tracking.  Every rank carries an epoch counter
// bumped each time it crosses a barrier (collectives barrier internally, so
// they advance epochs too).  Then:
//
//   * unbarriered-read    — a channel byte range was put in epoch E and the
//                           owner read the channel while still in epoch E
//                           (either order: a read followed by a same-epoch
//                           incoming put is flagged at the put).
//   * conflicting-puts    — two ranks put overlapping byte ranges into the
//                           same channel in the same epoch; last-writer-wins
//                           would be schedule-dependent.
//   * undrained-rpcs      — a job finished with RPCs still queued on some
//                           rank (missing progress()/rpc_quiescence()).
//   * collective-mismatch — ranks disagree on the collective sequence
//                           number, operation, or element count.
//
// Violations are recorded (deduplicated, capped) and Runtime::run() throws
// one aggregated simcov::Error after all rank threads have joined, ahead of
// any rank's exception.  Only a collective mismatch also stops the rank at
// the detection site, since combining mismatched slots would race with the
// peers; its throw aborts the team like any rank failure (runtime.hpp).
//
// Every hook is internally synchronized and safe to call from violating
// programs: epochs are atomics, per-target put logs are mutex-guarded, and
// collective descriptors are read with relaxed atomics (a torn read can
// only happen in an already-detected mismatch window).
//
// Cost: when checking is disabled the runtime holds a null pointer and each
// primitive pays one branch.  When enabled, puts/reads take one small
// mutex; put logs are pruned every epoch so memory stays proportional to the
// traffic of the two most recent epochs.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace simcov::pgas {

using RankId = int;

/// Collective operation tags for shape verification.  Scalar and u64 sums
/// route through the vector sum, so they share kSum with count == 1.
/// Broadcasts verify op + byte count (the root is not part of the shape).
enum class CollectiveOp : std::uint8_t { kNone = 0, kSum, kMax, kXor, kBroadcast };

const char* collective_op_name(CollectiveOp op);

class DisciplineChecker {
 public:
  explicit DisciplineChecker(int num_ranks);
  ~DisciplineChecker();

  DisciplineChecker(const DisciplineChecker&) = delete;
  DisciplineChecker& operator=(const DisciplineChecker&) = delete;

  /// Called after the rank returns from the team barrier.
  void on_barrier(RankId rank);

  /// Called by put() after bounds checks, before the bytes are copied.
  void on_put(RankId source, RankId target, int channel, std::size_t offset,
              std::size_t len);

  /// Called when a rank takes a (const or mutable) view of its own channel.
  void on_channel_read(RankId reader, int channel);

  /// Called at the top of a collective, before the rank's slot is written.
  void on_collective_enter(RankId rank, CollectiveOp op, std::size_t count);

  /// Called after the collective's exchange barrier; verifies that every
  /// rank entered the same collective with the same shape.  When any peer
  /// disagrees it records the violation and throws, before the caller
  /// reads the mismatched slots; the team aborts and run() reports the
  /// recorded mismatch.
  void on_collective_verify(RankId rank);

  /// Called by Runtime::run() after all rank threads joined.
  void on_job_end(RankId rank, std::size_t queued_rpcs);

  /// True iff no violation has been recorded.
  bool clean() const;
  /// Number of violations recorded (deduplicated messages may be fewer).
  std::uint64_t violation_count() const;
  /// Multi-line human-readable report ("" when clean).
  std::string report() const;

 private:
  struct PutRecord {
    std::uint64_t epoch;
    RankId source;
    std::size_t offset;
    std::size_t len;
  };

  // Per-target-rank channel history.  Mutex-guarded because the writer is
  // the *source* rank's thread while reads come from the owner.
  struct TargetState {
    std::mutex mutex;
    std::map<int, std::vector<PutRecord>> puts;
    std::map<int, std::uint64_t> read_epochs;  // most recent read, per chan
  };

  // Per-rank collective descriptor, written before the exchange barrier and
  // read by every rank after it (the barrier orders correct programs; the
  // atomics keep incorrect ones diagnosable instead of undefined).  `epoch`
  // is the rank's barrier count at entry: in a matched program every rank
  // enters its k-th collective after the same number of barriers, so a
  // collective paired with a peer's plain barrier is caught however the
  // threads interleave.
  struct CollectiveMeta {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<CollectiveOp> op{CollectiveOp::kNone};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> epoch{0};
  };

  void record_violation(const std::string& message);

  int num_ranks_;
  std::vector<std::atomic<std::uint64_t>> epochs_;
  std::vector<TargetState> targets_;
  std::vector<CollectiveMeta> collectives_;

  mutable std::mutex violations_mutex_;
  std::vector<std::string> violations_;  // deduplicated, capped
  std::uint64_t total_violations_ = 0;

  static constexpr std::size_t kMaxRecordedViolations = 64;
};

}  // namespace simcov::pgas
