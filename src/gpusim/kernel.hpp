#pragma once
// Kernel-side contexts and global-memory views.
//
// ThreadCtx: handed to each thread of a data-parallel kernel (parallel_for).
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
// The same choke point carries KernelProf (obs/profile.hpp): the byte and
// atomic counters a GlobalSpan increments are plain pointers supplied at
// bind time (Device::bind, reached through a launch's buffer arguments or
// ThreadCtx/BlockCtx::global), so when profiling is enabled the span points
// them at per-buffer profiler slots instead of the DeviceStats aggregates.
// Per-buffer attribution therefore costs nothing per access — the
// increment was always indirect — and exactly one extra null-pointer
// branch per buffer bind, which for launch arguments is once per launch.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/check.hpp"
#include "util/error.hpp"

namespace simcov::gpusim {

class Device;
struct LaunchConfig;
struct DeviceStats;
template <typename T>
class DeviceBuffer;

/// Kernel-side mutable view of a DeviceBuffer.  Cheap to copy.  Valid for
/// the launch that bound it; KernelCheck reports an access made after that
/// launch ended.
template <typename T>
class GlobalSpan {
 public:
  std::size_t size() const { return size_; }

  T read(std::size_t i) const {
    SIMCOV_ASSERT(i < size_, "global read out of bounds");
    *read_bytes_ += sizeof(T);
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kRead);
    return data_[i];
  }

  void write(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "global write out of bounds");
    *write_bytes_ += sizeof(T);
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kWrite);
    data_[i] = value;
  }

  /// Coalesced read of `n` consecutive elements starting at `i`: returns a
  /// pointer the kernel may read (only) through for the duration of the
  /// launch.  Traffic accounting and KernelCheck shadowing are identical to
  /// n scalar read() calls; the pointer return just lets the vectorized
  /// stencil loops (core/stencil.hpp) run without a per-element hook, which
  /// is what a real GPU's coalesced load is.
  const T* read_block(std::size_t i, std::size_t n) const {
    SIMCOV_ASSERT(i + n <= size_ && i + n >= i,
                  "global block read out of bounds");
    *read_bytes_ += n * sizeof(T);
    if (chk_) {
      chk_->on_global_range(data_, i, n, KernelChecker::Access::kRead);
    }
    return data_ + i;
  }

  /// Coalesced write view of `n` consecutive elements starting at `i`: the
  /// kernel must store to every element it declared (the checker shadows
  /// all n as written).  Counterpart of read_block for stencil row output.
  T* write_block(std::size_t i, std::size_t n) const {
    SIMCOV_ASSERT(i + n <= size_ && i + n >= i,
                  "global block write out of bounds");
    *write_bytes_ += n * sizeof(T);
    if (chk_) {
      chk_->on_global_range(data_, i, n, KernelChecker::Access::kWrite);
    }
    return data_ + i;
  }

  /// atomicAdd: returns the old value.
  T atomic_add(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "atomic out of bounds");
    ++*atomics_;
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kAtomic);
    T old = data_[i];
    data_[i] = old + value;
    return old;
  }

  /// atomicMax: returns the old value.
  T atomic_max(std::size_t i, T value) const {
    SIMCOV_ASSERT(i < size_, "atomic out of bounds");
    ++*atomics_;
    if (chk_) chk_->on_global_access(data_, i, KernelChecker::Access::kAtomic);
    T old = data_[i];
    if (value > old) data_[i] = value;
    return old;
  }

 private:
  friend class Device;
  GlobalSpan(T* data, std::size_t size, std::uint64_t* rd, std::uint64_t* wr,
             std::uint64_t* at, KernelChecker* chk)
      : data_(data), size_(size), read_bytes_(rd), write_bytes_(wr),
        atomics_(at), chk_(chk) {}

  T* data_;
  std::size_t size_;
  std::uint64_t* read_bytes_;
  std::uint64_t* write_bytes_;
  std::uint64_t* atomics_;
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
  /// arguments instead, see Device::parallel_for).
  template <typename T>
  GlobalSpan<T> global(DeviceBuffer<T>& buf) const;

 private:
  friend class Device;
  ThreadCtx(Device& d, const LaunchConfig& cfg, std::uint32_t b,
            std::uint32_t t);

  Device* device_;
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
  BlockCtx(Device& d, const LaunchConfig& cfg, std::uint32_t b);
  void bump_threads(std::uint32_t n);
  void sync_boundary();               ///< implicit __syncthreads
  std::uint32_t thread_at(std::uint32_t k) const;  ///< replay schedule

  Device* device_;
  KernelChecker* chk_;  ///< the device's checker, or nullptr
  bool replay_;         ///< a KernelCheck replay (non-canonical order)
  std::uint32_t block_idx_, block_dim_, grid_dim_;
  std::vector<std::unique_ptr<std::vector<std::byte>>> shared_allocs_;
};

}  // namespace simcov::gpusim
