#pragma once
// A virtual GPU device.
//
// SIMCoV-GPU's optimizations (§3) are statements about *access patterns*:
// how many kernel launches a timestep needs, how much global memory traffic
// the kernels generate, how many atomic operations the statistics update
// performs, and how much of the domain the kernels touch at all.  This
// substrate executes CUDA-shaped kernels (grid of blocks of threads, per-
// block shared memory with synchronization phases, global-memory views with
// atomics) semantically faithfully on the host, while counting exactly the
// events the paper's optimizations target.  The performance model
// (src/perfmodel) prices those counters as an A100-class device would.
//
// Discipline enforced at runtime (tests in tests/gpusim_test.cpp):
//   * Host code cannot touch device memory except through explicit
//     copy_to_host / copy_from_host, and only while no kernel is active.
//   * Kernels access buffers only through GlobalSpan views — bound once
//     per launch from the launch's buffer arguments, or from the
//     thread/block context — and only buffers of the same device.
//   * A launch runs its threads in canonical order (blocks ascending,
//     threads ascending) as plain nested loops; the flat, permuted loop
//     exists only for KernelCheck's replays.
//   * Shared memory exists per block, is zero-initialized at block start,
//     and phases separated by sync() see each other's writes (the
//     __syncthreads model; threads within a phase run sequentially, which
//     is a legal schedule of a data-race-free CUDA block).
//   * Opt-in (DeviceOptions::obs / SIMCOV_KERNEL_CHECK): KernelCheck
//     (gpusim/check.hpp) shadow-checks every access for intra-launch races
//     and can re-execute each launch under permuted thread schedules to
//     certify bit-for-bit determinism.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "gpusim/check.hpp"
#include "obs/config.hpp"
#include "obs/memscope.hpp"  // header-only memory registry
#include "obs/profile.hpp"   // header-only profiler core
#include "util/error.hpp"

namespace simcov::gpusim {

/// Event counters, flushed continuously.  Units are bytes for traffic
/// counters and operation counts otherwise.
struct DeviceStats {
  std::uint64_t kernel_launches = 0;
  std::uint64_t blocks_executed = 0;
  std::uint64_t threads_executed = 0;
  std::uint64_t global_read_bytes = 0;
  std::uint64_t global_write_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t shared_bytes_allocated = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  /// Watermark of allocated_bytes over the device's lifetime — reported
  /// even when MemScope is off, so every BackendResult carries a peak.
  /// Unlike the event counters this is a level, not a flow: += sums it
  /// (devices' buffers are simultaneously live, so the sum of per-device
  /// peaks is the process footprint) and since() carries it through
  /// unchanged (a watermark has no meaningful delta).
  std::uint64_t peak_allocated_bytes = 0;

  DeviceStats& operator+=(const DeviceStats& o) {
    kernel_launches += o.kernel_launches;
    blocks_executed += o.blocks_executed;
    threads_executed += o.threads_executed;
    global_read_bytes += o.global_read_bytes;
    global_write_bytes += o.global_write_bytes;
    atomic_ops += o.atomic_ops;
    shared_bytes_allocated += o.shared_bytes_allocated;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    peak_allocated_bytes += o.peak_allocated_bytes;
    return *this;
  }

  DeviceStats since(const DeviceStats& snap) const {
    DeviceStats d;
    d.kernel_launches = kernel_launches - snap.kernel_launches;
    d.blocks_executed = blocks_executed - snap.blocks_executed;
    d.threads_executed = threads_executed - snap.threads_executed;
    d.global_read_bytes = global_read_bytes - snap.global_read_bytes;
    d.global_write_bytes = global_write_bytes - snap.global_write_bytes;
    d.atomic_ops = atomic_ops - snap.atomic_ops;
    d.shared_bytes_allocated = shared_bytes_allocated - snap.shared_bytes_allocated;
    d.h2d_bytes = h2d_bytes - snap.h2d_bytes;
    d.d2h_bytes = d2h_bytes - snap.d2h_bytes;
    d.peak_allocated_bytes = peak_allocated_bytes;  // level, not a flow
    return d;
  }
};

struct LaunchConfig {
  std::uint32_t grid_dim = 1;   ///< number of blocks
  std::uint32_t block_dim = 1;  ///< threads per block
  const char* name = nullptr;   ///< kernel name for diagnostics (optional)

  std::uint64_t total_threads() const {
    return static_cast<std::uint64_t>(grid_dim) * block_dim;
  }
};

/// Opt-in analyses.  The Device reads kernel_check / permute (KernelCheck),
/// profile (KernelProf) and memscope (MemScope) from `obs`, which defaults
/// to the parsed environment (obs/config.hpp).
struct DeviceOptions {
  obs::Config obs = obs::Config::from_env();
  /// Record findings instead of throwing at end of launch; the owner
  /// (run_gpu_sim) reports after all rank threads joined.  A rank thread
  /// throwing mid-step would desert the team barrier and hang its peers.
  bool defer_check_report = false;
};

template <typename T>
class DeviceBuffer;
template <typename T>
class GlobalSpan;
class ThreadCtx;
class BlockCtx;

/// One virtual GPU.  Each PGAS rank owns one Device in SIMCoV-GPU (the
/// paper runs one process per GPU).
class Device {
 public:
  explicit Device(int id, const DeviceOptions& opts = {}) : id_(id) {
    const KernelCheckOptions copts{opts.obs.kernel_check, opts.obs.permute,
                                   opts.defer_check_report};
    if (copts.enabled()) {
      checker_ = std::make_unique<KernelChecker>(copts);
    }
    if (opts.obs.profile) prof_ = std::make_unique<obs::KernelProf>();
    if (opts.obs.memscope) mem_ = std::make_unique<obs::MemScope>();
  }

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  bool kernel_active() const { return kernel_depth_ > 0; }
  std::size_t allocated_bytes() const { return allocated_bytes_; }
  /// Watermark of allocated_bytes() over the device's lifetime (always
  /// tracked; MemScope adds the per-buffer attribution on top).
  std::size_t peak_allocated_bytes() const {
    return static_cast<std::size_t>(stats_.peak_allocated_bytes);
  }

  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }

  /// The attached KernelChecker, or nullptr when checking is off.
  KernelChecker* checker() { return checker_.get(); }
  const KernelChecker* checker() const { return checker_.get(); }

  /// The attached KernelProf, or nullptr when profiling is off.
  obs::KernelProf* profiler() { return prof_.get(); }
  const obs::KernelProf* profiler() const { return prof_.get(); }

  /// The attached MemScope registry, or nullptr when accounting is off.
  obs::MemScope* memscope() { return mem_.get(); }
  const obs::MemScope* memscope() const { return mem_.get(); }

  /// Launches a data-parallel kernel: `body(ThreadCtx&, spans...)` runs
  /// once per thread.  Threads must be independent (no shared memory); use
  /// launch_blocks for cooperative kernels.
  ///
  /// The trailing buffers are the kernel's pointer arguments: each is bound
  /// to a GlobalSpan<T> once for the whole launch, the way a CUDA launch
  /// passes device pointers, and every thread receives the same spans
  /// after its context.  The device check (a foreign buffer throws here,
  /// at launch) and the KernelProf slot routing therefore run once per
  /// launch, not once per thread; the per-access hooks are unchanged.
  template <typename F, typename... Ts>
  void parallel_for(const LaunchConfig& cfg, F&& body,
                    DeviceBuffer<Ts>&... args);

  /// Launches a cooperative kernel: `body(BlockCtx&, spans...)` runs once
  /// per block and drives its threads in phases (see
  /// BlockCtx::for_each_thread).  Buffer arguments bind as in parallel_for.
  template <typename F, typename... Ts>
  void launch_blocks(const LaunchConfig& cfg, F&& body,
                     DeviceBuffer<Ts>&... args);

 private:
  template <typename T>
  friend class DeviceBuffer;
  friend class ThreadCtx;
  friend class BlockCtx;

  /// Thread/block iteration order for the current execution of a launch.
  /// Canonical (ascending) is the only order the substrate ever commits;
  /// reversed and seeded-shuffled exist for KernelCheck replays.
  enum class Order : std::uint8_t { kCanonical, kReversed, kShuffled };

  /// DeviceBuffer allocation bookkeeping.  Exact by construction (every
  /// alloc is matched by a free of the same byte count — tests pin this);
  /// account_free subtracts unchecked so a miscount shows up as a wrapped
  /// allocated_bytes() in tests instead of being silently clamped away.
  void account_alloc(std::size_t bytes) {
    allocated_bytes_ += bytes;
    if (allocated_bytes_ > stats_.peak_allocated_bytes) {
      stats_.peak_allocated_bytes = allocated_bytes_;
    }
  }
  void account_free(std::size_t bytes) { allocated_bytes_ -= bytes; }

  void begin_kernel(const LaunchConfig& cfg) {
    SIMCOV_REQUIRE(cfg.grid_dim > 0 && cfg.block_dim > 0,
                   "launch config must have positive dimensions");
    SIMCOV_REQUIRE(cfg.block_dim <= 1024,
                   "block_dim exceeds 1024 (CUDA hardware limit)");
    SIMCOV_REQUIRE(kernel_depth_ == 0,
                   "nested kernel launch (device busy)");
    ++kernel_depth_;
    ++stats_.kernel_launches;
  }
  void end_kernel() { --kernel_depth_; }

  /// The single GlobalSpan factory: checks that `buf` lives on this
  /// device and points the span's traffic counters at the buffer's
  /// KernelProf slot, or at the DeviceStats aggregates when profiling is
  /// off.  Launches call it once per buffer argument; ThreadCtx::global and
  /// BlockCtx::global forward to it.
  template <typename T>
  GlobalSpan<T> bind(DeviceBuffer<T>& buf);

  /// Replay schedules only (the canonical order runs as plain nested
  /// loops): position k of the outer iteration (flat thread index for
  /// parallel_for, block index for launch_blocks).
  std::uint64_t sched_flat(std::uint64_t k, std::uint64_t n) const {
    return order_ == Order::kReversed ? n - 1 - k : flat_perm_[k];
  }
  /// Replay schedules only: thread index at position k of a cooperative
  /// block's for_each_thread.
  std::uint32_t thread_order(std::uint32_t k, std::uint32_t bd) const {
    return order_ == Order::kReversed
               ? bd - 1 - k
               : static_cast<std::uint32_t>(thread_perm_[k]);
  }
  void set_order(Order o, const LaunchConfig& cfg, bool cooperative) {
    order_ = o;
    flat_perm_.clear();
    thread_perm_.clear();
    if (o != Order::kShuffled) return;
    // Seeded by the launch sequence number: deterministic across runs,
    // different across launches.
    const std::uint64_t seed = checker_ ? checker_->launch_seq() : 1;
    if (cooperative) {
      flat_perm_ = seeded_permutation(seed * 2 + 1, cfg.grid_dim);
      thread_perm_ = seeded_permutation(seed * 2 + 2, cfg.block_dim);
    } else {
      flat_perm_ = seeded_permutation(seed * 2 + 1, cfg.total_threads());
    }
  }

  template <typename Exec>
  void run_launch(const LaunchConfig& cfg, bool cooperative, Exec&& exec);
  template <typename Exec>
  void run_with_permutations(const LaunchConfig& cfg, bool cooperative,
                             Exec&& exec);

  int id_;
  int kernel_depth_ = 0;
  std::size_t allocated_bytes_ = 0;
  DeviceStats stats_;
  std::unique_ptr<KernelChecker> checker_;
  std::unique_ptr<obs::KernelProf> prof_;
  std::unique_ptr<obs::MemScope> mem_;
  Order order_ = Order::kCanonical;
  std::vector<std::uint64_t> flat_perm_;
  std::vector<std::uint64_t> thread_perm_;
};

}  // namespace simcov::gpusim

#include "gpusim/kernel.hpp"  // IWYU pragma: keep — defines launch bodies

namespace simcov::gpusim {

template <typename Exec>
void Device::run_launch(const LaunchConfig& cfg, bool cooperative,
                        Exec&& exec) {
  // Profiling wraps the whole launch (including KernelCheck replays, whose
  // wall time is honestly part of this run): snapshot per-buffer counters
  // and the clock, run, then record the launch and fold the per-buffer
  // deltas back into the DeviceStats aggregates so counters are identical
  // with profiling on or off.
  if (prof_) prof_->begin_launch(stats_.threads_executed);
  if (!checker_) {
    exec();
  } else {
    checker_->begin_launch(cfg.name, cfg.grid_dim, cfg.block_dim);
    if (checker_->permute_schedules()) {
      run_with_permutations(cfg, cooperative, exec);
    } else {
      exec();
    }
    // Reports (and, for a raw Device, throws) from a normal call site — a
    // throwing destructor would terminate.  If the body itself threw, this
    // is skipped and only the launch-depth guard unwinds.
    checker_->end_launch();
  }
  if (prof_) {
    const obs::KernelProf::LaunchTotals tot = prof_->end_launch(
        cfg.name, cfg.grid_dim, cfg.block_dim, stats_.threads_executed);
    stats_.global_read_bytes += tot.read_bytes;
    stats_.global_write_bytes += tot.write_bytes;
    stats_.atomic_ops += tot.atomic_ops;
  }
}

template <typename Exec>
void Device::run_with_permutations(const LaunchConfig& cfg, bool cooperative,
                                   Exec&& exec) {
  // Replays first, canonical last: the canonical execution is the one
  // whose memory effects and counters survive, so results are bit-
  // identical whether or not permutation is enabled.
  const KernelChecker::Snapshot pre = checker_->snapshot_buffers();
  const DeviceStats saved = stats_;
  // The profiler's per-buffer counters are restored in lockstep with
  // stats_, so replays do not double-count traffic.
  obs::KernelProf::CounterSnapshot prof_saved;
  if (prof_) prof_saved = prof_->save_counters();
  KernelChecker::Snapshot posts[2];
  checker_->set_replay(true);
  const Order replays[2] = {Order::kReversed, Order::kShuffled};
  for (int p = 0; p < 2; ++p) {
    set_order(replays[p], cfg, cooperative);
    exec();
    posts[p] = checker_->snapshot_buffers();
    checker_->restore_buffers(pre);
    stats_ = saved;
    if (prof_) prof_->restore_counters(prof_saved);
  }
  checker_->set_replay(false);
  set_order(Order::kCanonical, cfg, cooperative);
  exec();
  const KernelChecker::Snapshot post = checker_->snapshot_buffers();
  checker_->diff_against_canonical(post, posts[0], "reversed");
  checker_->diff_against_canonical(post, posts[1], "seeded-shuffle");
  checker_->note_launch_permuted();
}

template <typename F, typename... Ts>
void Device::parallel_for(const LaunchConfig& cfg, F&& body,
                          DeviceBuffer<Ts>&... args) {
  begin_kernel(cfg);
  struct Guard {
    Device* d;
    ~Guard() { d->end_kernel(); }
  } guard{this};
  const std::tuple<GlobalSpan<Ts>...> spans{bind(args)...};
  const auto thread = [&](std::uint32_t b, std::uint32_t t) {
    ThreadCtx ctx(*this, cfg, b, t);
    std::apply([&](const GlobalSpan<Ts>&... s) { body(ctx, s...); }, spans);
  };
  auto exec = [&] {
    KernelChecker* const chk = checker_.get();
    if (order_ == Order::kCanonical) {
      for (std::uint32_t b = 0; b < cfg.grid_dim; ++b) {
        for (std::uint32_t t = 0; t < cfg.block_dim; ++t) {
          if (chk) chk->at_thread(b, t);
          thread(b, t);
        }
      }
    } else {
      // KernelCheck replay: the flat thread index under the permuted
      // schedule, split into (block, thread).
      const std::uint64_t n = cfg.total_threads();
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t idx = sched_flat(k, n);
        const auto b = static_cast<std::uint32_t>(idx / cfg.block_dim);
        const auto t = static_cast<std::uint32_t>(idx % cfg.block_dim);
        chk->at_thread(b, t);
        thread(b, t);
      }
    }
    stats_.blocks_executed += cfg.grid_dim;
    stats_.threads_executed += cfg.total_threads();
  };
  run_launch(cfg, /*cooperative=*/false, exec);
}

template <typename F, typename... Ts>
void Device::launch_blocks(const LaunchConfig& cfg, F&& body,
                           DeviceBuffer<Ts>&... args) {
  begin_kernel(cfg);
  struct Guard {
    Device* d;
    ~Guard() { d->end_kernel(); }
  } guard{this};
  const std::tuple<GlobalSpan<Ts>...> spans{bind(args)...};
  auto exec = [&] {
    for (std::uint32_t k = 0; k < cfg.grid_dim; ++k) {
      const std::uint32_t b =
          order_ == Order::kCanonical
              ? k
              : static_cast<std::uint32_t>(sched_flat(k, cfg.grid_dim));
      if (checker_) checker_->begin_block(b);
      BlockCtx ctx(*this, cfg, b);
      std::apply([&](const GlobalSpan<Ts>&... s) { body(ctx, s...); }, spans);
    }
    stats_.blocks_executed += cfg.grid_dim;
  };
  run_launch(cfg, /*cooperative=*/true, exec);
}

}  // namespace simcov::gpusim
