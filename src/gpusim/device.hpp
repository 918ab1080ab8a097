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
//     exists only for KernelCheck's replays.  A data-parallel launch hands
//     its body runs of consecutive threads (RunCtx): unchecked, the longest
//     ranges inside one block and one `segment`-aligned slice of the flat
//     thread index; with a KernelChecker attached, one thread each, so the
//     checker sees every thread's accesses under its own (block, thread).
//     parallel_for runs a per-thread body through the same loop, each
//     thread with its own ThreadCtx.  With DeviceOptions::workers
//     W > 1, an unchecked launch of at least 4·W blocks splits its blocks
//     into W contiguous ranges: the calling thread runs range 0 with the
//     same nested loop, W - 1 pooled helpers (pool.hpp) run the others.
//     Blocks are unordered in CUDA, and KernelCheck's replays certify
//     every kernel as block-order independent; counting and atomics are
//     per-worker and deterministic (kernel.hpp), so results and counters
//     are the same bits for every W.
//   * One counting rule: only the canonical execution of a launch counts
//     (fold_lanes), into DeviceStats and, for a buffer with a KernelProf
//     slot, into that slot too; a KernelCheck replay counts nothing, and
//     deferred FP atomics apply in canonical (block, phase, thread) order
//     under every schedule.
//   * Shared memory exists per block, is zero-initialized at block start,
//     and phases separated by sync() see each other's writes (the
//     __syncthreads model; threads within a phase run sequentially, which
//     is a legal schedule of a data-race-free CUDA block).
//   * Opt-in (DeviceOptions::obs / SIMCOV_KERNEL_CHECK): KernelCheck
//     (gpusim/check.hpp) shadow-checks every access for intra-launch races
//     and can re-execute each launch under permuted thread schedules to
//     certify bit-for-bit determinism.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "gpusim/check.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/pool.hpp"
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
  /// Host threads that execute one launch's blocks (the calling thread
  /// plus workers - 1 pooled helpers).  run_gpu_sim gives each rank's
  /// device max(1, hardware threads / ranks); 1 runs every launch on the
  /// calling thread.
  unsigned workers = 1;
};

template <typename T>
class DeviceBuffer;

/// One virtual GPU.  Each PGAS rank owns one Device in SIMCoV-GPU (the
/// paper runs one process per GPU).
class Device {
 public:
  explicit Device(int id, const DeviceOptions& opts = {})
      : id_(id), lanes_(std::max(1u, opts.workers)) {
    SIMCOV_REQUIRE(opts.workers <= 256, "device workers must be at most 256");
    if (lanes_.size() > 1) {
      pool_ = WorkerPool::lease(static_cast<unsigned>(lanes_.size() - 1));
    }
    const KernelCheckOptions copts{opts.obs.kernel_check, opts.obs.permute};
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

  /// Launches a data-parallel kernel: `body(const RunCtx&, spans...)` runs
  /// once per run of consecutive threads and does the work of each thread
  /// of its run (RunCtx).  Threads must be independent (no shared memory);
  /// use launch_blocks for cooperative kernels.
  ///
  /// Without a KernelChecker, the runs are the longest ranges of threads
  /// that stay inside one block and one slice [k * segment, (k + 1) *
  /// segment) of the flat thread index; a kernel over tiles passes its tile
  /// side, so that a run never leaves a tile row.  With a checker attached
  /// every run is one thread, in the schedule's order, so race analysis and
  /// permuted replays see each thread's accesses under its own identity.
  /// The launch geometry, and with it threads_executed and
  /// blocks_executed, is `cfg` either way.
  ///
  /// The trailing buffers are the kernel's pointer arguments: each is bound
  /// to a GlobalSpan<T> once for the whole launch, the way a CUDA launch
  /// passes device pointers, and every run receives the same spans after
  /// its context.  The device check (a foreign buffer throws here, at
  /// launch) and the KernelProf slot routing therefore run once per
  /// launch, not once per thread; the per-access hooks are unchanged.
  ///
  /// The body may run concurrently for different blocks (workers > 1), so
  /// it must not write host state; results go through its spans.
  template <typename F, typename... Ts>
  void parallel_runs(const LaunchConfig& cfg, std::uint32_t segment, F&& body,
                     DeviceBuffer<Ts>&... args);

  /// The per-thread form of parallel_runs: `body(ThreadCtx&, spans...)`
  /// runs once per thread, in the same order.  Its runs are whole blocks
  /// (segment = block_dim), and an adapter hands each thread of a run its
  /// own ThreadCtx, so the body sees what a segment of 1 would show it at
  /// the cost of a plain loop over threads.
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
  friend class RunCtx;
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
    // A launch that threw left its lanes mid-count; every launch starts
    // from empty lanes.
    for (Lane& l : lanes_) {
      l.used_ = 0;
      l.threads = l.shared_bytes = 0;
      l.fp_log_.clear();
    }
  }
  void end_kernel() { --kernel_depth_; }

  /// The single GlobalSpan factory: checks that `buf` lives on this
  /// device and counts the span into a tally of `lane` that names the
  /// buffer's KernelProf slot (null when profiling is off).  Launches call
  /// it once per buffer argument (each gets its own tally);
  /// ThreadCtx::global and BlockCtx::global forward to it and share the
  /// lane's tally for that slot, counting `threads` binds (a RunCtx binds
  /// once for each thread of its run).
  template <typename T>
  GlobalSpan<T> bind(DeviceBuffer<T>& buf, Lane& lane, bool launch_arg,
                     std::uint32_t threads = 1);

  /// Runs fn(lane, spans, b0, b1) over blocks [0, grid): inline on lane 0
  /// when the device has one worker, a KernelChecker is attached (checked
  /// and permuted launches stay serial) or the grid has fewer than 4
  /// blocks per worker; otherwise as W contiguous ranges, range k on lane
  /// k, range 0 on the calling thread.  Lane 0 gets the launch-argument
  /// `spans` themselves; a helper gets copies that count into its own
  /// tallies (binds were counted once, when `spans` were bound).
  template <typename... Ts, typename Fn>
  void spread(std::uint32_t grid, const std::tuple<GlobalSpan<Ts>...>& spans,
              Fn&& fn) {
    const auto w = static_cast<std::uint64_t>(lanes_.size());
    const std::uint64_t parts = !pool_ || checker_ || grid < 4 * w ? 1 : w;
    // Every range, inline or pooled, runs through this one out-of-line
    // function, so the launch loop exists once per launch site; the
    // launches flatten it, inlining the kernel body and its accessors into
    // the loop.
    auto range = [&](unsigned k) __attribute__((noinline)) {
      Lane& lane = lanes_[k];
      std::optional<std::tuple<GlobalSpan<Ts>...>> own;
      if (k > 0) {
        own.emplace(std::apply(
            [&](const GlobalSpan<Ts>&... s) {
              return std::tuple<GlobalSpan<Ts>...>{GlobalSpan<Ts>(
                  s.data_, s.size_, &lane.new_tally(s.tally_->dest),
                  s.chk_)...};
            },
            spans));
      }
      fn(lane, own ? *own : spans, static_cast<std::uint32_t>(grid * k / parts),
         static_cast<std::uint32_t>(grid * (k + 1) / parts));
    };
    if (parts == 1) {
      range(0);
    } else {
      pool_->run(range);
    }
  }

  /// End of one execution of a launch.  Only the canonical execution
  /// counts: it adds `blocks` and `threads` (the launch geometry; a
  /// cooperative launch's threads are its BlockCtx phase counts) and every
  /// lane's tallies and BlockCtx counts to stats_, and a tally routed to a
  /// KernelProf slot to that slot as well.  A KernelCheck replay counts
  /// nothing, so its traffic needs no undoing.  Every execution then
  /// applies its deferred FP atomics: lanes hold ascending block ranges, so
  /// the lanes in order are the canonical (block, phase, thread) order, and
  /// a replay's log (lane 0 alone) is stable-sorted into it.  Each thread's
  /// adds keep their program order, so every schedule applies the
  /// canonical serial sum.
  void fold_lanes(std::uint64_t blocks, std::uint64_t threads) {
    const bool count = order_ == Order::kCanonical;
    if (count) {
      stats_.blocks_executed += blocks;
      stats_.threads_executed += threads;
    }
    for (Lane& l : lanes_) {
      for (std::size_t i = 0; i < l.used_; ++i) {
        SpanTally& t = l.tallies_[i];
        if (count) {
          stats_.global_read_bytes += t.read_bytes;
          stats_.global_write_bytes += t.write_bytes;
          stats_.atomic_ops += t.atomic_ops;
          if (t.dest != nullptr) {
            t.dest->read_bytes += t.read_bytes;
            t.dest->write_bytes += t.write_bytes;
            t.dest->atomic_ops += t.atomic_ops;
            t.dest->binds += t.binds;
          }
        }
        t.read_bytes = t.write_bytes = t.atomic_ops = t.binds = 0;
      }
      if (count) {
        stats_.threads_executed += l.threads;
        stats_.shared_bytes_allocated += l.shared_bytes;
      }
      l.threads = l.shared_bytes = 0;
    }
    if (!count) {
      std::stable_sort(lanes_[0].fp_log_.begin(), lanes_[0].fp_log_.end(),
                       [](const Lane::FpAdd& a, const Lane::FpAdd& b) {
                         return std::tie(a.at.block, a.at.phase, a.at.thread) <
                                std::tie(b.at.block, b.at.phase, b.at.thread);
                       });
    }
    for (Lane& l : lanes_) {
      for (const Lane::FpAdd& a : l.fp_log_) {
        if (a.is_float) {
          float* e = static_cast<float*>(a.elem);
          *e = *e + static_cast<float>(a.value);
        } else {
          double* e = static_cast<double*>(a.elem);
          *e = *e + a.value;
        }
      }
      l.fp_log_.clear();
    }
  }

  /// Replay schedules only (the canonical order runs as plain nested
  /// loops): position k of the outer iteration (flat thread index for
  /// parallel_runs, block index for launch_blocks).
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
  /// One lane per worker, fixed at construction (tallies point back into
  /// their lane); lane 0 is the calling thread's.
  std::vector<Lane> lanes_;
  WorkerPool::Lease pool_;  ///< the W - 1 helpers, or null
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

template <typename Exec>
void Device::run_launch(const LaunchConfig& cfg, bool cooperative,
                        Exec&& exec) {
  // Profiling wraps the whole launch (including KernelCheck replays, whose
  // wall time is honestly part of this run); the slots' traffic comes from
  // the canonical execution's fold_lanes, like every other counter.
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
    prof_->end_launch(cfg.name, cfg.grid_dim, cfg.block_dim,
                      stats_.threads_executed);
  }
}

template <typename Exec>
void Device::run_with_permutations(const LaunchConfig& cfg, bool cooperative,
                                   Exec&& exec) {
  // Replays first, canonical last: the canonical execution is the one
  // whose memory effects survive and the only one that counts
  // (fold_lanes), so results and counters are bit-identical whether or
  // not permutation is enabled.
  const KernelChecker::Snapshot pre = checker_->snapshot_buffers();
  KernelChecker::Snapshot posts[2];
  checker_->set_replay(true);
  const Order replays[2] = {Order::kReversed, Order::kShuffled};
  for (int p = 0; p < 2; ++p) {
    set_order(replays[p], cfg, cooperative);
    exec();
    posts[p] = checker_->snapshot_buffers();
    checker_->restore_buffers(pre);
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
void Device::parallel_runs(const LaunchConfig& cfg, std::uint32_t segment,
                           F&& body, DeviceBuffer<Ts>&... args) {
  SIMCOV_REQUIRE(segment > 0, "run segment must be positive");
  begin_kernel(cfg);
  struct Guard {
    Device* d;
    ~Guard() { d->end_kernel(); }
  } guard{this};
  using Spans = std::tuple<GlobalSpan<Ts>...>;
  const Spans spans{bind(args, lanes_[0], /*launch_arg=*/true)...};
  const auto run = [&](Lane& lane, const Spans& sp, std::uint32_t b,
                       std::uint32_t t, std::uint32_t n) {
    const RunCtx ctx(*this, lane, cfg, b, t, n);
    std::apply([&](const GlobalSpan<Ts>&... s) { body(ctx, s...); }, sp);
  };
  auto exec = [&] {
    if (order_ == Order::kCanonical) {
      // Canonical order over blocks [b0, b1), as plain nested loops over
      // the flat thread index.  A run ends at its block's end and at the
      // next multiple of the segment; under a checker every run is a
      // thread.
      spread(cfg.grid_dim, spans,
             [&](Lane& lane, const Spans& sp, std::uint32_t b0,
                 std::uint32_t b1) __attribute__((flatten)) {
        KernelChecker* const chk = checker_.get();
        const std::uint32_t bd = cfg.block_dim;
        const std::uint64_t seg = chk ? 1 : segment;
        std::uint64_t flat = std::uint64_t{b0} * bd;
        // The next segment edge; only a helper's range divides for it.
        std::uint64_t edge = b0 == 0 ? seg : (flat / seg + 1) * seg;
        for (std::uint32_t b = b0; b < b1; ++b) {
          const std::uint64_t first = flat, end = flat + bd;
          while (flat < end) {
            const std::uint64_t stop = std::min(end, edge);
            const auto t = static_cast<std::uint32_t>(flat - first);
            if (chk) chk->at_thread(b, t);
            run(lane, sp, b, t, static_cast<std::uint32_t>(stop - flat));
            flat = stop;
            if (flat == edge) edge += seg;
          }
        }
      });
    } else {
      // KernelCheck replay: the flat thread index under the permuted
      // schedule, split into (block, thread), one thread per run.
      Lane& lane = lanes_[0];
      const std::uint64_t n = cfg.total_threads();
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t idx = sched_flat(k, n);
        const auto b = static_cast<std::uint32_t>(idx / cfg.block_dim);
        const auto t = static_cast<std::uint32_t>(idx % cfg.block_dim);
        checker_->at_thread(b, t);
        run(lane, spans, b, t, 1);
      }
    }
    fold_lanes(cfg.grid_dim, cfg.total_threads());
  };
  run_launch(cfg, /*cooperative=*/false, exec);
}

template <typename F, typename... Ts>
void Device::parallel_for(const LaunchConfig& cfg, F&& body,
                          DeviceBuffer<Ts>&... args) {
  parallel_runs(cfg, cfg.block_dim, [&](const RunCtx& r,
                                        const GlobalSpan<Ts>&... s) {
    for (std::uint32_t t = r.first_thread(); t < r.first_thread() + r.count();
         ++t) {
      ThreadCtx ctx(r, t);
      body(ctx, s...);
    }
  }, args...);
}

template <typename F, typename... Ts>
void Device::launch_blocks(const LaunchConfig& cfg, F&& body,
                           DeviceBuffer<Ts>&... args) {
  begin_kernel(cfg);
  struct Guard {
    Device* d;
    ~Guard() { d->end_kernel(); }
  } guard{this};
  using Spans = std::tuple<GlobalSpan<Ts>...>;
  const Spans spans{bind(args, lanes_[0], /*launch_arg=*/true)...};
  auto exec = [&] {
    // Replays have a checker attached, so spread runs them on lane 0.
    spread(cfg.grid_dim, spans,
           [&](Lane& lane, const Spans& sp, std::uint32_t k0,
               std::uint32_t k1) __attribute__((flatten)) {
      for (std::uint32_t k = k0; k < k1; ++k) {
        const std::uint32_t b =
            order_ == Order::kCanonical
                ? k
                : static_cast<std::uint32_t>(sched_flat(k, cfg.grid_dim));
        if (checker_) checker_->begin_block(b);
        BlockCtx ctx(*this, lane, cfg, b);
        std::apply([&](const GlobalSpan<Ts>&... s) { body(ctx, s...); }, sp);
      }
    });
    fold_lanes(cfg.grid_dim, 0);
  };
  run_launch(cfg, /*cooperative=*/true, exec);
}

}  // namespace simcov::gpusim
