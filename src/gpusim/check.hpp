#pragma once
// KernelCheck: opt-in race & determinism analyzer for the virtual GPU.
//
// The device substrate (device.hpp) executes CUDA-shaped kernels with a
// fixed sequential schedule: blocks in order, threads in order, phases
// separated by the implicit __syncthreads of BlockCtx::for_each_thread.
// That schedule is *one legal schedule* of a data-race-free kernel — but
// nothing stops a kernel from being schedule-dependent, in which case the
// substrate silently computes one of many possible answers and every
// result built on it (digests, figures, equivalence tests) is an accident
// of iteration order.  PR 1 made every race in the PGAS runtime a hard
// diagnostic; KernelCheck does the same for the kernel layer, so the hot
// kernels can be rewritten (SIMD, split-phase halos) on a floor that
// screams instead of corrupting.
//
// Two independent modes:
//
//   * access checking — per launch, shadow access sets keyed
//     (buffer, element) record who touched what, as (block, thread,
//     phase) triples.  Two accesses are *ordered* iff they are by the
//     same thread, or by the same block in different phases (the
//     implicit-__syncthreads contract); anything else is concurrent on a
//     real GPU.  Concurrent conflicts raise hard diagnostics:
//       - write-write race      two plain writes to one element
//       - read-write race       plain read concurrent with a plain write
//       - atomic-plain mix      an atomic and a plain access to one
//                               element (the plain side is not atomic on
//                               real hardware)
//     Shared-memory conflicts are the same rules scoped to the block and
//     reported as phase violations — a same-phase conflict means the
//     kernel relies on for_each_thread's sequential order standing in
//     for a missing __syncthreads.  Aliased views are caught for free:
//     shadow identity is the underlying storage, so two GlobalSpans over
//     one buffer land in the same access set.
//
//   * schedule permutation — each launch is executed three times: under
//     a reversed schedule, under a seeded-shuffled schedule, and finally
//     under the canonical schedule; device buffers and counters are
//     snapshotted/restored between runs so the canonical execution is
//     the one that survives (results and DeviceStats are bit-identical
//     whether or not permutation is on).  Any buffer whose final bytes
//     differ between schedules is schedule-dependent — this is what
//     catches order-dependent floating-point atomic_add reductions,
//     which the access checker rightly accepts (atomics don't race) but
//     which are not deterministic.  A reduction that is intentionally
//     order-tolerant can be annotated per launch with
//     DeviceBuffer::tolerate_schedule_variance(rationale); tolerated
//     differences are counted, not fatal.
//
// What KernelCheck proves / does not prove: a clean access check means no
// intra-launch data race was *executed* for these inputs (it is a dynamic
// analysis, like TSan — dead branches are not explored).  A clean
// permutation pass means the launch's result is invariant under the three
// exercised schedules, which in this substrate (sequential execution,
// no weak-memory effects) is strong evidence of full schedule
// independence for that input.  Neither proves anything about launches
// that were never run.
//
// Enablement mirrors the PGAS checker: obs::Config::kernel_check / permute
// in DeviceOptions (device.hpp), whose default is the environment's
// SIMCOV_KERNEL_CHECK=1 (access checking) / SIMCOV_KERNEL_CHECK=permute
// (access checking + permutation).  A raw Device throws simcov::Error at
// the end of the offending launch; the SPMD GPU backend constructs its
// devices with deferred reporting — a rank thread that threw mid-step
// would desert the team barrier and hang its peers — and the SPMD driver
// (spmd/run.hpp) throws one aggregated Error after all ranks joined.  When
// disabled the hooks cost one null-pointer branch per access (gated ≤2% of
// step time by bench/obs_overhead).
//
// The checker is deliberately unsynchronized: one Device (and therefore
// one checker) belongs to one rank thread.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace simcov::gpusim {

/// What to check.  The Device builds it from DeviceOptions (device.hpp).
struct KernelCheckOptions {
  bool check_access = false;      ///< shadow access-set race detection
  bool permute_schedules = false; ///< re-execute launches, diff bit-for-bit
  bool defer_report = false;      ///< record; the owner throws after join
  bool enabled() const { return check_access || permute_schedules; }
};

/// Deterministic Fisher–Yates permutation of [0, n) keyed by `seed`
/// (splitmix64-driven; no global RNG state).
std::vector<std::uint64_t> seeded_permutation(std::uint64_t seed,
                                              std::uint64_t n);

class KernelChecker {
 public:
  enum class Access : std::uint8_t { kRead, kWrite, kAtomic };

  /// Snapshot of every registered buffer's bytes, sorted by base address.
  using Snapshot = std::vector<std::pair<const void*, std::vector<std::byte>>>;

  explicit KernelChecker(const KernelCheckOptions& opts);

  KernelChecker(const KernelChecker&) = delete;
  KernelChecker& operator=(const KernelChecker&) = delete;

  bool access_checking() const { return opts_.check_access; }
  bool permute_schedules() const { return opts_.permute_schedules; }
  bool defer_report() const { return opts_.defer_report; }

  // ---- buffer registry (DeviceBuffer lifecycle) --------------------------
  void register_buffer(void* data, std::size_t bytes, std::size_t elem_size,
                       const char* name);
  void unregister_buffer(const void* data);

  // ---- launch lifecycle (driven by Device) -------------------------------
  void begin_launch(const char* name, std::uint32_t grid_dim,
                    std::uint32_t block_dim);
  /// Ends the launch; throws simcov::Error naming every finding of this
  /// launch unless defer_report.  Always clears per-launch exemptions.
  void end_launch();
  std::uint64_t launch_seq() const { return launch_seq_; }

  // ---- execution position (driven by Device / BlockCtx) ------------------
  /// parallel_for: thread (b, t); no phases (phase stays 0).
  void at_thread(std::uint32_t block, std::uint32_t thread);
  /// launch_blocks: a new block starts; resets phases and shared shadows.
  void begin_block(std::uint32_t block);
  /// for_each_thread boundary — the implicit __syncthreads.  Called on
  /// entry and exit, so block-driver code between calls occupies its own
  /// phase and is ordered against every thread.
  void enter_phase();
  /// Current thread within the current cooperative block/phase.
  void at_block_thread(std::uint32_t thread);

  // ---- permutation support (driven by Device) ----------------------------
  /// Replays (non-canonical schedules) skip shadow updates: access sets
  /// describe the canonical execution only.
  void set_replay(bool on) { replay_ = on; }
  bool replaying() const { return replay_; }
  Snapshot snapshot_buffers() const;
  void restore_buffers(const Snapshot& snap) const;
  /// Compares a permuted run's final state against the canonical one and
  /// records a schedule-dependent-result violation per differing buffer
  /// (or counts it, for buffers tolerated this launch).
  void diff_against_canonical(const Snapshot& canonical,
                              const Snapshot& permuted,
                              const char* schedule_label);
  void note_launch_permuted() { ++launches_permuted_; }

  /// Exempts `data`'s buffer from the *next* end-of-launch bit-diff (the
  /// access checker still applies).  Cleared by end_launch().
  void tolerate_schedule_variance(const void* data, const char* rationale);

  // ---- access hooks (hot path; called by GlobalSpan / SharedSpan) --------
  void on_global_access(const void* buf, std::size_t elem, Access kind);
  /// Range form for GlobalSpan::read_block/write_block: shadows elements
  /// [first, first+n) exactly as n scalar accesses would.
  void on_global_range(const void* buf, std::size_t first, std::size_t n,
                       Access kind);
  void on_shared_access(const void* alloc, std::size_t elem, Access kind);

  // ---- results -----------------------------------------------------------
  bool clean() const { return total_violations_ == 0; }
  std::uint64_t violation_count() const { return total_violations_; }
  /// Multi-line human-readable report ("" when clean).
  std::string report() const;
  std::uint64_t accesses_checked() const { return accesses_checked_; }
  std::uint64_t launches_checked() const { return launches_checked_; }
  std::uint64_t launches_permuted() const { return launches_permuted_; }
  std::uint64_t tolerated_diffs() const { return tolerated_diffs_; }

 private:
  /// One access's position in the schedule.
  struct Who {
    std::uint32_t block = 0;
    std::uint32_t thread = 0;
    std::uint32_t phase = 0;
  };

  /// Per-element shadow state.  Representatives, not full sets: the
  /// latest plain writer, the latest atomic, and the latest two readers
  /// with distinct (block, thread).  Under the canonical ascending
  /// schedule this catches every first conflict: of any two same-phase
  /// readers at most one can share the writer's thread, and accesses from
  /// earlier phases are ordered anyway.
  struct Cell {
    std::uint64_t epoch = 0;  ///< launch_seq_ stamp; stale cells are reset
    Who writer, atomic, readers[2];
    std::uint8_t has_writer = 0, has_atomic = 0, num_readers = 0;
  };

  struct BufferInfo {
    void* data = nullptr;
    std::size_t bytes = 0;
    std::size_t elem_size = 1;
    const char* name = nullptr;
  };

  static bool ordered(const Who& earlier, const Who& later);
  void check_cell(std::vector<Cell>& shadow, std::size_t elem, Access kind,
                  const void* buf, bool shared);
  void record_violation(const std::string& rule, const std::string& detail);
  std::string buffer_label(const void* buf, bool shared) const;
  std::string launch_label() const;
  std::vector<Cell>& shadow_for(const void* buf, bool shared);

  KernelCheckOptions opts_;
  std::unordered_map<const void*, BufferInfo> registry_;
  std::unordered_map<const void*, std::vector<Cell>> global_shadow_;
  std::unordered_map<const void*, std::vector<Cell>> shared_shadow_;
  // One-entry lookup cache: kernel bodies hammer the same few buffers.
  const void* cached_key_ = nullptr;
  std::vector<Cell>* cached_shadow_ = nullptr;
  bool cached_shared_ = false;

  struct Exemption {
    const void* data;
    const char* rationale;
  };
  std::vector<Exemption> exemptions_;  ///< next-launch scope

  // Current launch + position.
  const char* kernel_name_ = nullptr;
  std::uint32_t grid_dim_ = 0, block_dim_ = 0;
  std::uint64_t launch_seq_ = 0;
  Who pos_;
  bool replay_ = false;

  // Findings (deduplicated messages, capped; totals exact).
  std::vector<std::string> violations_;
  std::size_t launch_first_violation_ = 0;  ///< index at begin_launch
  std::uint64_t total_violations_ = 0;

  // Counters for obs metrics / the overhead gate.
  std::uint64_t accesses_checked_ = 0;
  std::uint64_t launches_checked_ = 0;
  std::uint64_t launches_permuted_ = 0;
  std::uint64_t tolerated_diffs_ = 0;

  static constexpr std::size_t kMaxRecordedViolations = 64;
  static constexpr std::uint32_t kBlockDriver = 0xFFFFFFFFu;
};

}  // namespace simcov::gpusim
