#pragma once
// Device-resident typed buffers.
//
// DeviceBuffer<T> models cudaMalloc'd memory: the host can only move data in
// and out with explicit copies (counted as H2D/D2H traffic) and only while
// no kernel is running; kernels access elements through GlobalSpan views
// obtained from their launch context (counted as global-memory traffic).

#include <cstring>
#include <span>
#include <type_traits>

#include "gpusim/device.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace simcov::gpusim {

template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device memory holds trivially copyable types only");

 public:
  DeviceBuffer(Device& dev, std::size_t count, T init = T{},
               const char* name = nullptr)
      : device_(&dev), storage_(count, init), name_(name) {
    device_->account_alloc(count * sizeof(T));
    if (KernelChecker* chk = device_->checker()) {
      chk->register_buffer(storage_.data(), count * sizeof(T), sizeof(T),
                           name);
    }
    if (obs::KernelProf* prof = device_->profiler()) {
      prof_slot_ = prof->register_buffer(storage_.data(), name);
    }
    if (obs::MemScope* ms = device_->memscope()) {
      mem_slot_ = ms->slot(name);
      ms->alloc(mem_slot_, count * sizeof(T));
    }
  }

  ~DeviceBuffer() {
    if (device_) release_registrations();
  }

  // Moving transfers the registry identity for free: the checker keys on
  // the heap storage, whose address survives a vector move (the profiler
  // and memscope slot pointers move with the handle for the same reason).
  // The moved-from buffer's storage_ is left empty by the vector move, so
  // its destructor cannot double-subtract even if device_ were consulted.
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : device_(o.device_), storage_(std::move(o.storage_)),
        prof_slot_(o.prof_slot_), mem_slot_(o.mem_slot_), name_(o.name_) {
    o.device_ = nullptr;
    o.prof_slot_ = nullptr;
    o.mem_slot_ = nullptr;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      if (device_) release_registrations();
      device_ = o.device_;
      storage_ = std::move(o.storage_);
      prof_slot_ = o.prof_slot_;
      mem_slot_ = o.mem_slot_;
      name_ = o.name_;
      o.device_ = nullptr;
      o.prof_slot_ = nullptr;
      o.mem_slot_ = nullptr;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  std::size_t size() const { return storage_.size(); }
  Device& device() const { return *device_; }

  /// Reallocates to `count` elements (cudaFree + cudaMalloc of the new
  /// size, except the common prefix survives; new elements read `init`).
  /// Grow and shrink are accounted as separate branches: a single
  /// new-minus-old expression over size_t would wrap on resize-smaller
  /// (the PR 1 put() offset bug class; tests pin the exact byte counts).
  void resize(std::size_t count, T init = T{}) {
    require_host_access("resize");
    const std::size_t old_bytes = storage_.size() * sizeof(T);
    const std::size_t new_bytes = count * sizeof(T);
    // Deregister before the vector reallocates: checker and profiler key on
    // the storage address, which resize may move.
    if (KernelChecker* chk = device_->checker()) {
      chk->unregister_buffer(storage_.data());
    }
    if (obs::KernelProf* prof = device_->profiler()) {
      prof->release_slot(prof_slot_);
      prof_slot_ = nullptr;
    }
    storage_.resize(count, init);
    if (new_bytes >= old_bytes) {
      device_->account_alloc(new_bytes - old_bytes);
    } else {
      device_->account_free(old_bytes - new_bytes);
    }
    if (obs::MemScope* ms = device_->memscope()) {
      if (mem_slot_ == nullptr) mem_slot_ = ms->slot(name_);
      ms->resize(mem_slot_, old_bytes, new_bytes);
    }
    if (KernelChecker* chk = device_->checker()) {
      chk->register_buffer(storage_.data(), new_bytes, sizeof(T), name_);
    }
    if (obs::KernelProf* prof = device_->profiler()) {
      prof_slot_ = prof->register_buffer(storage_.data(), name_);
    }
  }

  /// Host -> device copy (cudaMemcpyHostToDevice).
  void copy_from_host(std::span<const T> src, std::size_t dst_offset = 0) {
    require_host_access("copy_from_host");
    SIMCOV_REQUIRE(dst_offset + src.size() <= storage_.size(),
                   "copy_from_host out of bounds");
    std::memcpy(storage_.data() + dst_offset, src.data(),
                src.size() * sizeof(T));
    device_->stats_.h2d_bytes += src.size() * sizeof(T);
  }

  /// Device -> host copy (cudaMemcpyDeviceToHost).
  void copy_to_host(std::span<T> dst, std::size_t src_offset = 0) const {
    require_host_access("copy_to_host");
    SIMCOV_REQUIRE(src_offset + dst.size() <= storage_.size(),
                   "copy_to_host out of bounds");
    std::memcpy(dst.data(), storage_.data() + src_offset,
                dst.size() * sizeof(T));
    device_->stats_.d2h_bytes += dst.size() * sizeof(T);
  }

  /// Device-side fill (cudaMemset-style); counted as global writes.
  void fill(T value) {
    require_host_access("fill");
    for (auto& v : storage_) v = value;
    device_->stats_.global_write_bytes += storage_.size() * sizeof(T);
  }

 private:
  friend class Device;

  /// Shared by the destructor and move-assignment: returns this buffer's
  /// bytes to the device and releases every registry entry, using the
  /// *current* storage size so a resized buffer frees exactly what it
  /// charged (destruction-after-move is covered by the callers checking
  /// device_, and by the moved-from storage_ being empty).
  void release_registrations() {
    device_->account_free(storage_.size() * sizeof(T));
    if (KernelChecker* chk = device_->checker()) {
      chk->unregister_buffer(storage_.data());
    }
    if (obs::KernelProf* prof = device_->profiler()) {
      prof->release_slot(prof_slot_);
    }
    if (obs::MemScope* ms = device_->memscope()) {
      ms->free(mem_slot_, storage_.size() * sizeof(T));
    }
  }

  void require_host_access(const char* what) const {
    SIMCOV_REQUIRE(device_ != nullptr, "buffer moved-from");
    SIMCOV_REQUIRE(!device_->kernel_active(),
                   std::string(what) + " while a kernel is active");
  }

  T* raw() { return storage_.data(); }
  const T* raw() const { return storage_.data(); }

  Device* device_;
  /// Cache-line-aligned backing store (cudaMalloc alignment model): the
  /// vectorized stencil sweep hands row pointers into this storage to
  /// aligned vector loads, and TiledLayout pads strides on the same
  /// util::kFieldAlignBytes unit so every tile row inherits the alignment.
  util::aligned_vector<T> storage_;
  /// KernelProf per-buffer counter slot (null when profiling is off);
  /// Device::bind routes GlobalSpan counter pointers here so every access
  /// is attributed to this buffer at no added per-access cost.
  obs::ProfSlot* prof_slot_ = nullptr;
  /// MemScope registry slot (null when accounting is off).
  obs::MemSlot* mem_slot_ = nullptr;
  /// Registered name, kept so resize() can re-register under the same
  /// identity (a static string, like LaunchConfig::name).
  const char* name_ = nullptr;
};

}  // namespace simcov::gpusim
