#pragma once
// Out-of-line definitions that need Device and DeviceBuffer complete.
// Include via gpusim/gpusim.hpp.

#include "gpusim/buffer.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"

namespace simcov::gpusim {

inline RunCtx::RunCtx(Device& d, Lane& lane, const LaunchConfig& cfg,
                      std::uint32_t b, std::uint32_t first,
                      std::uint32_t count)
    : device_(&d), lane_(&lane), block_idx_(b), first_(first), count_(count),
      block_dim_(cfg.block_dim), grid_dim_(cfg.grid_dim) {}

template <typename T>
GlobalSpan<T> Device::bind(DeviceBuffer<T>& buf, Lane& lane, bool launch_arg,
                           std::uint32_t threads) {
  SIMCOV_REQUIRE(&buf.device() == this,
                 "kernel bound a buffer from a different device");
  // KernelProf attribution: when the buffer carries a profiler slot, the
  // span's tally names it, and fold_lanes adds the tally to the slot as
  // well as to the DeviceStats aggregates.  One null check per *bind*,
  // zero added cost per access.  Launch arguments bind on the launching
  // thread, before any worker runs, and count once per launch; a bind
  // inside a thread may run on a helper, so it counts in its lane.
  obs::ProfSlot* const slot = buf.prof_slot_;
  SpanTally* tally;
  if (launch_arg) {
    if (slot != nullptr) ++slot->binds;
    tally = &lane.new_tally(slot);
  } else {
    tally = &lane.tally_for(slot);
    tally->binds += threads;
  }
  return GlobalSpan<T>(buf.raw(), buf.size(), tally, checker());
}

template <typename T>
GlobalSpan<T> RunCtx::global(DeviceBuffer<T>& buf) const {
  return device_->bind(buf, *lane_, /*launch_arg=*/false, count_);
}

template <typename T>
GlobalSpan<T> ThreadCtx::global(DeviceBuffer<T>& buf) const {
  return device_->bind(buf, *lane_, /*launch_arg=*/false);
}

inline BlockCtx::BlockCtx(Device& d, Lane& lane, const LaunchConfig& cfg,
                          std::uint32_t b)
    : device_(&d), lane_(&lane), chk_(d.checker()),
      replay_(d.order_ != Device::Order::kCanonical), block_idx_(b),
      block_dim_(cfg.block_dim), grid_dim_(cfg.grid_dim) {}

inline void BlockCtx::sync_boundary() {
  if (chk_) chk_->enter_phase();
}

inline std::uint32_t BlockCtx::thread_at(std::uint32_t k) const {
  return device_->thread_order(k, block_dim_);
}

template <typename T>
SharedSpan<T> BlockCtx::shared(std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "shared memory holds trivially copyable types only");
  const std::size_t bytes = count * sizeof(T);
  // 164 KiB: A100 maximum shared memory per block.
  std::size_t in_use = bytes;
  for (const auto& a : shared_allocs_) in_use += a->size();
  SIMCOV_REQUIRE(in_use <= 164 * 1024,
                 "shared memory request exceeds per-block capacity");
  shared_allocs_.push_back(
      std::make_unique<std::vector<std::byte>>(bytes, std::byte{0}));
  lane_->shared_bytes += bytes;
  return SharedSpan<T>(reinterpret_cast<T*>(shared_allocs_.back()->data()),
                       count, chk_);
}

template <typename T>
GlobalSpan<T> BlockCtx::global(DeviceBuffer<T>& buf) const {
  return device_->bind(buf, *lane_, /*launch_arg=*/false);
}

}  // namespace simcov::gpusim
