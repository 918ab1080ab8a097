#pragma once
// Kernel-side contexts and global-memory views.
//
// RunCtx: handed to each run of a data-parallel kernel (parallel_runs): a
//   range of consecutive threads of one block, which the body executes as
//   a flat loop, each thread with its own counted accesses.
// ThreadCtx: handed to each thread of a parallel_for kernel (a run body
//   that hands every thread of its run its own context).
// BlockCtx: handed to each block of a cooperative kernel (launch_blocks);
//   provides per-block shared memory and phased thread execution where
//   consecutive for_each_thread calls are separated by an implicit
//   __syncthreads (all writes of phase N visible in phase N+1).
// GlobalSpan<T>: the only way kernels read/write device buffers; every
//   access is bounds-checked and counted as global-memory traffic, and
//   atomic read-modify-writes are counted separately (they are what the
//   fast-reduction optimization of §3.3 eliminates).
// SharedSpan<T>: the view BlockCtx::shared returns; element access goes
//   through a proxy so the opt-in KernelChecker (check.hpp) can classify
//   each touch as a read or a write against the phase contract.
//
// Every accessor funnels through KernelChecker hooks when a checker is
// attached to the device (one predictable null-pointer branch otherwise);
// this is the choke point that makes the race analyzer complete: kernels
// have no other path to device data.
//
// Counting is per worker lane: a GlobalSpan increments the SpanTally it was
// bound with, a cache-line-padded launch-local owned by the Lane (one per
// worker of a block-parallel launch, device.hpp) that runs the thread.  At
// the end of the canonical execution of a launch the Device adds every
// lane's tallies to the DeviceStats aggregates, and a tally bound to a
// buffer with a KernelProf slot (obs/profile.hpp) to that slot as well, so
// per-buffer attribution costs one null-pointer branch per bind, nothing
// per access, and concurrent workers never share a counter.  A KernelCheck
// replay counts nothing.
//
// Atomics are deterministic for any worker count and any schedule.
// Integer atomic_add and atomic_max are std::atomic_ref read-modify-writes
// (integer addition and max commute, so any interleaving gives the same
// bits).  A floating-point atomic_add is deferred: it appends (schedule
// position, element, value) to its lane's log, and the Device applies the
// logs at launch end in canonical (block, phase, thread) order, each
// thread's adds in program order.  That is the canonical serial sum, bit
// for bit, however the blocks were spread over workers or the blocks and
// threads shuffled by a KernelCheck replay.  The deferred add has no old
// value to return, and a kernel must not read an element back in the
// launch that FP-atomically adds to it.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "gpusim/check.hpp"
#include "util/error.hpp"

namespace simcov::obs {
struct ProfSlot;
}  // namespace simcov::obs

namespace simcov::gpusim {

class Device;
struct LaunchConfig;
struct DeviceStats;
template <typename T>
class DeviceBuffer;
class Lane;

/// What one lane counted for one bound span during a launch: a launch-local
/// the span increments, added by Device::fold_lanes to the DeviceStats
/// aggregates and, when the buffer has one, to its KernelProf slot `dest`.
/// Padded to a cache line so lanes on different cores never share one.
struct alignas(64) SpanTally {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t binds = 0;  ///< in-thread binds (launch arguments count at bind)
  obs::ProfSlot* dest = nullptr;
  Lane* lane = nullptr;
};

/// One worker's share of a launch: the tallies of the spans it bound, the
/// counts its BlockCtxs bumped and its deferred floating-point atomics.
/// Touched only by the worker running it, and by the Device before and
/// after the launch.
class alignas(64) Lane {
 public:
  /// A fresh tally routed to `dest` (one per launch argument).
  SpanTally& new_tally(obs::ProfSlot* dest) {
    SIMCOV_REQUIRE(used_ < tallies_.size(),
                   "too many buffer binds in one launch");
    SpanTally& t = tallies_[used_++];
    t = SpanTally{};
    t.dest = dest;
    t.lane = this;
    return t;
  }
  /// The lane's tally routed to `dest`, created on first use: binds made
  /// inside threads share it, however many threads bind.
  SpanTally& tally_for(obs::ProfSlot* dest) {
    for (std::size_t i = 0; i < used_; ++i) {
      if (tallies_[i].dest == dest) return tallies_[i];
    }
    return new_tally(dest);
  }

  std::uint64_t threads = 0;       ///< BlockCtx phase threads executed
  std::uint64_t shared_bytes = 0;  ///< BlockCtx shared allocations

  /// Logs an FP atomic_add under the checker's schedule position; without
  /// a checker the launch is canonical and needs no position.
  template <typename T>
  void defer_add(T* elem, T value, const KernelChecker* chk) {
    fp_log_.push_back({chk ? chk->position() : KernelChecker::Who{},
                       std::is_same_v<T, float>, elem,
                       static_cast<double>(value)});
  }

 private:
  friend class Device;
  /// One deferred floating-point atomic_add (float or double element; a
  /// float value survives the round trip through double exactly).
  struct FpAdd {
    KernelChecker::Who at;  ///< (block, thread, phase) that issued it
    bool is_float;
    void* elem;
    double value;
  };

  std::array<SpanTally, 64> tallies_{};
  std::size_t used_ = 0;
  std::vector<FpAdd> fp_log_;
};

/// Kernel-side mutable view of a DeviceBuffer.  Cheap to copy.  Valid for
/// the launch that bound it; KernelCheck reports an access made after that
/// launch ended.  The accessors are forced inline: they are the innermost
/// operation of every kernel, and the bounds check's cold failure path
/// (util/error.hpp) keeps them small enough to inline everywhere.
template <typename T>
class GlobalSpan {
 public:
  std::size_t size() const { return size_; }

  [[gnu::always_inline]] T read(std::size_t i) const {
    SIMCOV_ASSERT(i < size_, "global read out of bounds");
    tally_->read_bytes += sizeof(T);
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kRead);
    return data_[i];
  }

  [[gnu::always_inline]] void write(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "global write out of bounds");
    tally_->write_bytes += sizeof(T);
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kWrite);
    data_[i] = value;
  }

  /// Coalesced read of `n` consecutive elements starting at `i`: returns a
  /// pointer the kernel may read (only) through for the duration of the
  /// launch.  Traffic accounting and KernelCheck shadowing are identical to
  /// n scalar read() calls; the pointer return just lets the vectorized
  /// stencil loops (core/stencil.hpp) run without a per-element hook, which
  /// is what a real GPU's coalesced load is.
  [[gnu::always_inline]] const T* read_block(std::size_t i,
                                             std::size_t n) const {
    SIMCOV_ASSERT(i + n <= size_ && i + n >= i,
                  "global block read out of bounds");
    tally_->read_bytes += n * sizeof(T);
    if (chk_) {
      chk_->on_global_range(data_, i, n, KernelChecker::Access::kRead);
    }
    return data_ + i;
  }

  /// Coalesced write view of `n` consecutive elements starting at `i`: the
  /// kernel must store to every element it declared (the checker shadows
  /// all n as written).  Counterpart of read_block for stencil row output.
  [[gnu::always_inline]] T* write_block(std::size_t i, std::size_t n) const {
    SIMCOV_ASSERT(i + n <= size_ && i + n >= i,
                  "global block write out of bounds");
    tally_->write_bytes += n * sizeof(T);
    if (chk_) {
      chk_->on_global_range(data_, i, n, KernelChecker::Access::kWrite);
    }
    return data_ + i;
  }

  /// atomicAdd.  Integers return the old value; a floating-point add is
  /// deferred to launch end in canonical order (see the header comment)
  /// and returns nothing.
  [[gnu::always_inline]] auto atomic_add(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "atomic out of bounds");
    ++tally_->atomic_ops;
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kAtomic);
    if constexpr (std::is_floating_point_v<T>) {
      tally_->lane->defer_add(data_ + i, value, chk_);
    } else {
      return std::atomic_ref<T>(data_[i]).fetch_add(value,
                                                    std::memory_order_relaxed);
    }
  }

  /// atomicMax: returns the old value.
  [[gnu::always_inline]] T atomic_max(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "atomic out of bounds");
    ++tally_->atomic_ops;
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kAtomic);
    std::atomic_ref<T> elem(data_[i]);
    T old = elem.load(std::memory_order_relaxed);
    while (value > old &&
           !elem.compare_exchange_weak(old, value, std::memory_order_relaxed)) {
    }
    return old;
  }

 private:
  friend class Device;
  GlobalSpan(T* data, std::size_t size, SpanTally* tally, KernelChecker* chk)
      : data_(data), size_(size), tally_(tally), chk_(chk) {}

  T* data_;
  std::size_t size_;
  SpanTally* tally_;
  KernelChecker* chk_;
};

/// View of a per-block shared-memory allocation (__shared__ array).
/// Element access returns a proxy so reads and writes are distinguishable
/// by the checker; with the checker off the proxy compiles down to the
/// plain load/store.
template <typename T>
class SharedSpan {
 public:
  class Ref {
   public:
    operator T() const {  // NOLINT(google-explicit-constructor) — proxy read
      if (chk_) chk_->on_shared_access(base_, idx_, KernelChecker::Access::kRead);
      return base_[idx_];
    }
    Ref& operator=(T value) {
      if (chk_) {
        chk_->on_shared_access(base_, idx_, KernelChecker::Access::kWrite);
      }
      base_[idx_] = value;
      return *this;
    }
    // Proxy semantics: assigning from another Ref stores its value, it
    // does not rebind this proxy.
    Ref& operator=(const Ref& o) { return *this = static_cast<T>(o); }
    Ref& operator+=(T value) { return *this = static_cast<T>(*this) + value; }
    Ref(const Ref&) = default;

   private:
    friend class SharedSpan;
    Ref(T* base, std::size_t idx, KernelChecker* chk)
        : base_(base), idx_(idx), chk_(chk) {}
    T* base_;
    std::size_t idx_;
    KernelChecker* chk_;
  };

  std::size_t size() const { return size_; }

  Ref operator[](std::size_t i) const {
    SIMCOV_ASSERT(i < size_, "shared memory access out of bounds");
    return Ref(data_, i, chk_);
  }

 private:
  friend class BlockCtx;
  SharedSpan(T* data, std::size_t size, KernelChecker* chk)
      : data_(data), size_(size), chk_(chk) {}

  T* data_;
  std::size_t size_;
  KernelChecker* chk_;
};

/// Context of one run of a data-parallel kernel (Device::parallel_runs):
/// threads [first_thread(), first_thread() + count()) of block
/// block_idx(), consecutive in the flat thread index.  A run stands for
/// its count() threads: the body does the work of each of them and makes
/// each one's counted accesses (read_block/write_block count n elements; a
/// scalar access made once per thread is made count() times), so the
/// counters cannot tell how a launch was cut into runs.
class RunCtx {
 public:
  std::uint32_t block_idx() const { return block_idx_; }
  std::uint32_t first_thread() const { return first_; }
  std::uint32_t count() const { return count_; }

  /// Flat index of the run's first thread (blockIdx.x * blockDim.x +
  /// threadIdx.x); the run covers [global_index(), global_index() +
  /// count()).
  std::uint64_t global_index() const {
    return static_cast<std::uint64_t>(block_idx_) * block_dim_ + first_;
  }

  /// Binds a device buffer from inside the run, counted as count() binds:
  /// one for each thread the run stands for (see ThreadCtx::global).
  template <typename T>
  GlobalSpan<T> global(DeviceBuffer<T>& buf) const;

 private:
  friend class Device;
  friend class ThreadCtx;
  RunCtx(Device& d, Lane& lane, const LaunchConfig& cfg, std::uint32_t b,
         std::uint32_t first, std::uint32_t count);

  Device* device_;
  Lane* lane_;
  std::uint32_t block_idx_, first_, count_, block_dim_, grid_dim_;
};

/// Context of one thread in a data-parallel kernel.
class ThreadCtx {
 public:
  std::uint32_t block_idx() const { return block_idx_; }
  std::uint32_t thread_idx() const { return thread_idx_; }
  std::uint32_t block_dim() const { return block_dim_; }
  std::uint32_t grid_dim() const { return grid_dim_; }

  /// blockIdx.x * blockDim.x + threadIdx.x
  std::uint64_t global_index() const {
    return static_cast<std::uint64_t>(block_idx_) * block_dim_ + thread_idx_;
  }
  /// Total threads in the launch (for grid-stride loops).
  std::uint64_t grid_size() const {
    return static_cast<std::uint64_t>(grid_dim_) * block_dim_;
  }

  /// Binds a device buffer for kernel-side access from inside the thread
  /// (one bind per call; kernels normally take their buffers as launch
  /// arguments instead, see Device::parallel_runs).
  template <typename T>
  GlobalSpan<T> global(DeviceBuffer<T>& buf) const;

 private:
  friend class Device;
  /// Thread `t` of `run`'s block.
  ThreadCtx(const RunCtx& run, std::uint32_t t)
      : device_(run.device_), lane_(run.lane_), block_idx_(run.block_idx_),
        thread_idx_(t), block_dim_(run.block_dim_),
        grid_dim_(run.grid_dim_) {}

  Device* device_;
  Lane* lane_;
  std::uint32_t block_idx_, thread_idx_, block_dim_, grid_dim_;
};

/// Context of one block in a cooperative kernel.
class BlockCtx {
 public:
  std::uint32_t block_idx() const { return block_idx_; }
  std::uint32_t block_dim() const { return block_dim_; }
  std::uint32_t grid_dim() const { return grid_dim_; }

  /// Allocates a zero-initialized shared array for this block (the
  /// __shared__ declaration).  Counted toward shared_bytes_allocated.
  template <typename T>
  SharedSpan<T> shared(std::size_t count);

  /// Runs `fn(thread_idx)` for every thread of the block.  Consecutive
  /// calls are separated by an implicit __syncthreads: all effects of call
  /// N are visible to call N+1.  Entry and exit are both sync boundaries,
  /// so block-driver code between calls occupies its own phase.
  template <typename F>
  void for_each_thread(F&& fn) {
    sync_boundary();
    for (std::uint32_t k = 0; k < block_dim_; ++k) {
      const std::uint32_t t = replay_ ? thread_at(k) : k;
      if (chk_) chk_->at_block_thread(t);
      fn(t);
    }
    sync_boundary();
    bump_threads(block_dim_);
  }

  /// Binds a device buffer from inside the block (see ThreadCtx::global).
  template <typename T>
  GlobalSpan<T> global(DeviceBuffer<T>& buf) const;

 private:
  friend class Device;
  BlockCtx(Device& d, Lane& lane, const LaunchConfig& cfg, std::uint32_t b);
  void bump_threads(std::uint32_t n) { lane_->threads += n; }
  void sync_boundary();               ///< implicit __syncthreads
  std::uint32_t thread_at(std::uint32_t k) const;  ///< replay schedule

  Device* device_;
  Lane* lane_;
  KernelChecker* chk_;  ///< the device's checker, or nullptr
  bool replay_;         ///< a KernelCheck replay (non-canonical order)
  std::uint32_t block_idx_, block_dim_, grid_dim_;
  std::vector<std::unique_ptr<std::vector<std::byte>>> shared_allocs_;
};

}  // namespace simcov::gpusim
