#pragma once
// KernelProf: per-launch roofline profiling for the virtual GPU.
//
// The perfmodel prices *aggregate* counters per phase; the drift tables in
// BENCH_*.json therefore say which phase is off the model but not which of
// the ~19 named kernel launches inside it.  KernelProf closes that gap: when
// enabled (obs::Config::profile: --profile=1 or SIMCOV_PROFILE=1), every
// DeviceBuffer gets a slot, and each launch records wall ns, launch
// config, active threads, and bytes read/written *per named DeviceBuffer*.
// The slot is filled by the same end-of-launch fold that fills the
// DeviceStats aggregates (gpusim::Device::fold_lanes adds each span's
// tally to both), so attribution costs one null-pointer branch per buffer
// *bind* and nothing per access, and the aggregates and modeled seconds
// are the same bits with profiling on or off.
//
// Layering: this header is self-contained (no perfmodel/ or report-side
// link dependencies) so gpusim — which links only simcov_util and
// simcov_obs — can own a KernelProf.  The pricing/report side
// (kernel_drift_rows: achieved GB/s, arithmetic intensity, roofline
// utilization against perfmodel/machine.hpp) lives in profile.cpp, compiled
// into simcov_benchreport.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace simcov::perfmodel {
struct MachineSpec;
}  // namespace simcov::perfmodel

namespace simcov::obs {

/// Monotonic nanoseconds, header-only so the profiler core stays
/// self-contained.
inline std::uint64_t prof_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Global-memory traffic attributed to one named buffer.
struct BufferTraffic {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t atomic_ops = 0;
};

/// One registered DeviceBuffer's counters.  The traffic fields hold the
/// current launch's traffic: KernelProf::begin_launch zeroes them and
/// gpusim::Device::fold_lanes adds the canonical execution's tallies of
/// the spans bound to this buffer.  Slots live in a deque so their
/// addresses are stable for the lifetime of any span bound to them.
struct ProfSlot {
  std::string buffer;          ///< registered name ("tcells.pos", ...)
  const void* base = nullptr;  ///< storage identity; nullptr = free slot
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t binds = 0;  ///< GlobalSpan binds (overhead-gate site count)
};

/// One profiled kernel launch, as recorded by the Device.
struct LaunchRecord {
  const char* kernel = "<unnamed>";  ///< LaunchConfig::name (static string)
  std::uint32_t grid_dim = 0;
  std::uint32_t block_dim = 0;
  std::uint64_t start_ns = 0;  ///< steady-clock, absolute
  std::uint64_t end_ns = 0;
  std::uint64_t threads = 0;  ///< threads actually executed
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t atomic_ops = 0;
  /// Nonzero per-buffer traffic, attribution for the bytes above.
  std::vector<std::pair<std::string, BufferTraffic>> buffers;
};

/// Aggregated profile of one (phase, kernel) pair; summable across ranks.
struct KernelStats {
  std::string phase;   ///< perfmodel phase name ("" while untagged)
  std::string kernel;  ///< launch name
  std::uint64_t launches = 0;
  std::uint64_t wall_ns = 0;  ///< summed over launches (and later ranks)
  std::uint64_t threads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t atomic_ops = 0;
  double modeled_s = 0.0;  ///< GPU cost-model price of the same counters
  std::map<std::string, BufferTraffic> by_buffer;
};

/// Merges `add` into `all`, keyed by (phase, kernel).  Linear scan: the key
/// set is ~19 kernels x 6 phases at most.
inline void merge_kernel_stats(std::vector<KernelStats>& all,
                               const KernelStats& add) {
  for (KernelStats& k : all) {
    if (k.phase == add.phase && k.kernel == add.kernel) {
      k.launches += add.launches;
      k.wall_ns += add.wall_ns;
      k.threads += add.threads;
      k.read_bytes += add.read_bytes;
      k.write_bytes += add.write_bytes;
      k.atomic_ops += add.atomic_ops;
      k.modeled_s += add.modeled_s;
      for (const auto& [name, t] : add.by_buffer) {
        BufferTraffic& dst = k.by_buffer[name];
        dst.read_bytes += t.read_bytes;
        dst.write_bytes += t.write_bytes;
        dst.atomic_ops += t.atomic_ops;
      }
      return;
    }
  }
  all.push_back(add);
}

/// The per-Device profiler.  Driven by Device::run_launch (begin/end) and
/// DeviceBuffer registration; drained by the simulation (GpuSim) at phase
/// boundaries, which tags the records with the enclosing phase.
class KernelProf {
 public:
  /// Registered-buffer slot; the buffer caches the returned pointer so a
  /// span bind costs one null check, not a lookup.  Reuses a free slot when
  /// available (slot addresses stay valid: deque never shrinks).
  ProfSlot* register_buffer(const void* base, const char* name) {
    for (ProfSlot& s : slots_) {
      if (s.base == nullptr) {
        s.buffer = name != nullptr ? name : "<unnamed>";
        s.base = base;
        s.read_bytes = s.write_bytes = s.atomic_ops = s.binds = 0;
        return &s;
      }
    }
    slots_.emplace_back();
    ProfSlot& s = slots_.back();
    s.buffer = name != nullptr ? name : "<unnamed>";
    s.base = base;
    return &s;
  }

  void release_slot(ProfSlot* slot) {
    if (slot != nullptr) slot->base = nullptr;
  }

  void begin_launch(std::uint64_t threads_executed_before) {
    threads_before_ = threads_executed_before;
    for (ProfSlot& s : slots_) s.read_bytes = s.write_bytes = s.atomic_ops = 0;
    launch_start_ns_ = prof_now_ns();
  }

  /// Records the finished launch from the slots' traffic.
  void end_launch(const char* name, std::uint32_t grid_dim,
                  std::uint32_t block_dim,
                  std::uint64_t threads_executed_now) {
    LaunchRecord rec;
    rec.kernel = name != nullptr ? name : "<unnamed>";
    rec.grid_dim = grid_dim;
    rec.block_dim = block_dim;
    rec.start_ns = launch_start_ns_;
    rec.end_ns = prof_now_ns();
    rec.threads = threads_executed_now - threads_before_;
    for (const ProfSlot& s : slots_) {
      if (s.read_bytes == 0 && s.write_bytes == 0 && s.atomic_ops == 0) {
        continue;
      }
      rec.buffers.emplace_back(
          s.buffer, BufferTraffic{s.read_bytes, s.write_bytes, s.atomic_ops});
      rec.read_bytes += s.read_bytes;
      rec.write_bytes += s.write_bytes;
      rec.atomic_ops += s.atomic_ops;
    }
    pending_.push_back(std::move(rec));
  }

  /// Launch records since the last drain (the caller tags them with the
  /// enclosing phase).  Moves the buffer out.
  std::vector<LaunchRecord> drain() {
    std::vector<LaunchRecord> out;
    out.swap(pending_);
    return out;
  }

  std::size_t pending_count() const { return pending_.size(); }

  /// Total GlobalSpan binds routed through profiler slots — the site count
  /// the bench/obs_overhead differential gate multiplies by the disabled
  /// per-bind branch cost.
  std::uint64_t total_binds() const {
    std::uint64_t n = 0;
    for (const ProfSlot& s : slots_) n += s.binds;
    return n;
  }

 private:
  std::deque<ProfSlot> slots_;
  std::vector<LaunchRecord> pending_;
  std::uint64_t threads_before_ = 0;
  std::uint64_t launch_start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Pricing / report side (profile.cpp, linked into simcov_benchreport).
// ---------------------------------------------------------------------------

/// One row of the BENCH kernels section: a (phase, kernel) pair's measured
/// wall seconds against the cost model's price for the same counters, plus
/// the roofline quantities derived from perfmodel/machine.hpp.  Shares are
/// fractions of the *enclosing phase's* totals, so the rows of one phase
/// decompose that phase's drift row.  Each phase also gets a "<host>" row:
/// the phase time not spent inside any kernel (puts, host staging, barriers),
/// so per-phase kernel rows sum exactly to the phase totals.
struct KernelDriftRow {
  std::string phase;
  std::string kernel;  ///< launch name, or "<host>" for the remainder row
  std::uint64_t launches = 0;
  double measured_s = 0.0;
  double measured_share = 0.0;  ///< of the phase's measured seconds
  double modeled_s = 0.0;
  double modeled_share = 0.0;  ///< of the phase's modeled seconds
  double divergence = 0.0;     ///< measured_share - modeled_share
  double bytes = 0.0;          ///< read + write (unscaled, host-run counts)
  double achieved_gbps = 0.0;  ///< bytes / measured wall
  double arithmetic_intensity = 0.0;  ///< thread work-quanta per byte
  double roofline_util = 0.0;  ///< achieved BW / machine peak global BW
  std::map<std::string, BufferTraffic> by_buffer;
};

/// Builds the kernels section from per-(phase,kernel) aggregates and the
/// phase totals of the enclosing config.  Rows are ordered by phase (map
/// order), then descending measured seconds, then kernel name; "<host>"
/// remainder rows come last within their phase.
std::vector<KernelDriftRow> kernel_drift_rows(
    const std::vector<KernelStats>& kernels,
    const std::map<std::string, double>& measured_by_phase_s,
    const std::map<std::string, double>& modeled_by_phase_s,
    const perfmodel::MachineSpec& machine);

/// Human-readable roofline table (simcov_main --profile, bench stderr).
void print_kernel_profile(std::FILE* out,
                          const std::vector<KernelDriftRow>& rows);

}  // namespace simcov::obs
