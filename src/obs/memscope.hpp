#pragma once
// MemScope: per-buffer memory observability.
//
// ROADMAP item 2 (TeraAgent-scale memory) needs "same RSS at 16x grid" to be
// a checkable gate, which requires knowing where every byte lives.  MemScope
// is the memory-side twin of KernelProf: when enabled (obs::Config::memscope:
// --memscope=1 or SIMCOV_MEMSCOPE=1), every named DeviceBuffer
// alloc/resize/free updates a per-buffer registry slot (live bytes, peak
// watermark, alloc/free event counts), aggregated per category — voxel
// fields, tile metadata, halo staging, stats — plus host-side accounting for
// PGAS channel/queue storage (pgas::Rank) and the CPU backend's grids, so
// both backends report comparable footprints.  A /proc/self/status sampler
// (VmRSS + VmHWM) reconciles registry totals against what the OS charges,
// and perfmodel/mem_model.hpp predicts per-rank bytes from the same layout
// math so BENCH reports carry modeled-vs-measured *memory* drift rows
// exactly parallel to the time drift table.
//
// Overhead contract: MemScope observes allocation events only — never the
// per-access path — so an enabled run's simulation state and digests are
// bit-identical to a disabled run's.  Disabled cost is one null-pointer (or
// relaxed-atomic flag) branch per allocation event and per phase boundary;
// asserted by bench/obs_overhead.cpp like the tracer/checker/profiler gates.
//
// Layering: this header is self-contained (no perfmodel/ or report-side
// link dependencies) so gpusim — which links only simcov_util and
// simcov_obs — can own a MemScope, mirroring obs/profile.hpp.  The
// model/report side (memory drift rows, per-buffer table) lives in
// memscope.cpp inside simcov_benchreport.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace simcov::obs {

/// Process-wide activation flag, read by construction sites that have no
/// options plumbing of their own (pgas::Rank, PhaseClock's RSS sampling).
/// The sims raise it for the duration of a memscope run via MemScopeRun.
inline std::atomic<bool>& memscope_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool memscope_on() {
  return memscope_flag().load(std::memory_order_relaxed);
}

/// RAII activation for spmd::run_spmd: raises the process flag (when the
/// run's obs::Config asks for MemScope) before ranks are constructed,
/// restores it after.
class MemScopeRun {
 public:
  explicit MemScopeRun(bool enable)
      : prev_(memscope_flag().load(std::memory_order_relaxed)) {
    if (enable) {
      memscope_flag().store(true, std::memory_order_relaxed);
    }
  }
  ~MemScopeRun() { memscope_flag().store(prev_, std::memory_order_relaxed); }

  MemScopeRun(const MemScopeRun&) = delete;
  MemScopeRun& operator=(const MemScopeRun&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// Maps a registered buffer name to its reporting category.  Device buffers
/// keep the names given in gpu_sim.cpp; host-side slots use a "pgas." or
/// "host." prefix so the classifier needs no backend knowledge.
inline const char* mem_category(std::string_view buffer) {
  if (buffer == "active_tiles" || buffer == "sweep_flags") {
    return "tile_metadata";
  }
  if (buffer.substr(0, 6) == "stage_") return "halo_staging";
  if (buffer == "stats_dev" || buffer == "extrav") return "stats";
  if (buffer.substr(0, 5) == "pgas.") return "pgas";
  if (buffer.substr(0, 5) == "host.") return "host_grid";
  return "voxel_fields";
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One named buffer's accounting.  A slot aggregates every allocation made
/// under its name (names are unique per rank in the sims; tests may reuse
/// one), and persists after the buffer is freed so end-of-run reports cover
/// the whole run, not just what is still live.
struct MemSlot {
  std::string name;
  std::string category;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;  ///< watermark of this slot's live bytes
  std::uint64_t allocs = 0;      ///< alloc events (construction, grow)
  std::uint64_t frees = 0;       ///< free events (destruction, shrink)
};

/// Snapshot of one MemScope (or a cross-rank merge).  `buffers` is sorted by
/// name so reports are deterministic.
struct MemReport {
  std::uint64_t live_bytes = 0;       ///< final live total
  std::uint64_t peak_live_bytes = 0;  ///< watermark of the live total
  std::uint64_t alloc_events = 0;
  std::uint64_t free_events = 0;
  std::uint64_t underflows = 0;  ///< free/shrink below zero (accounting bug)
  std::vector<MemSlot> buffers;

  bool empty() const { return buffers.empty(); }

  /// Sum of per-buffer peaks — the deterministic "every byte attributed"
  /// total that category sums are validated against and that the bench
  /// regression gate tracks.  (>= peak_live_bytes: buffers freed before
  /// others peak still count in full here.)
  std::uint64_t registry_peak_bytes() const {
    std::uint64_t total = 0;
    for (const MemSlot& s : buffers) total += s.peak_bytes;
    return total;
  }

  /// Per-category sums of per-buffer peaks; sums exactly to
  /// registry_peak_bytes() by construction.
  std::map<std::string, std::uint64_t> categories() const {
    std::map<std::string, std::uint64_t> out;
    for (const MemSlot& s : buffers) out[s.category] += s.peak_bytes;
    return out;
  }
};

/// Merges `add` into `all`: slots are summed by name (per-rank peaks add —
/// the ranks' buffers are simultaneously live, so the sum is the process
/// peak, matching how rank times sum in the drift table).
inline void merge_mem_reports(MemReport& all, const MemReport& add) {
  all.live_bytes += add.live_bytes;
  all.peak_live_bytes += add.peak_live_bytes;
  all.alloc_events += add.alloc_events;
  all.free_events += add.free_events;
  all.underflows += add.underflows;
  for (const MemSlot& s : add.buffers) {
    MemSlot* dst = nullptr;
    for (MemSlot& have : all.buffers) {
      if (have.name == s.name) {
        dst = &have;
        break;
      }
    }
    if (dst == nullptr) {
      all.buffers.push_back(s);
      continue;
    }
    dst->live_bytes += s.live_bytes;
    dst->peak_bytes += s.peak_bytes;
    dst->allocs += s.allocs;
    dst->frees += s.frees;
  }
  // Per-owner reports are each sorted, but appending one owner's unseen
  // slots after another's (device buffers, then pgas) breaks the global
  // order the report format promises — restore it.
  std::sort(all.buffers.begin(), all.buffers.end(),
            [](const MemSlot& a, const MemSlot& b) { return a.name < b.name; });
}

/// The per-owner registry (one per Device, pgas::Rank and CpuRank — each is
/// touched only by its owning rank thread, so no lock is needed, mirroring
/// KernelProf).  DeviceBuffer caches the MemSlot* so alloc/resize/free cost
/// one pointer-chase; name-keyed convenience entry points serve the host
/// side, where registration is not on a hot path.
class MemScope {
 public:
  /// Find-or-create the named slot.  Slots live in a deque so cached
  /// pointers stay valid for the registry's lifetime.
  MemSlot* slot(const char* name) {
    const std::string_view key = name != nullptr ? name : "<unnamed>";
    for (MemSlot& s : slots_) {
      if (s.name == key) return &s;
    }
    slots_.emplace_back();
    MemSlot& s = slots_.back();
    s.name = key;
    s.category = mem_category(s.name);
    return &s;
  }

  void alloc(MemSlot* s, std::uint64_t bytes) {
    if (s == nullptr) return;
    ++alloc_events_;
    if (bytes == 0) return;
    s->live_bytes += bytes;
    ++s->allocs;
    if (s->live_bytes > s->peak_bytes) s->peak_bytes = s->live_bytes;
    live_ += bytes;
    if (live_ > peak_live_) peak_live_ = live_;
  }

  void free(MemSlot* s, std::uint64_t bytes) {
    if (s == nullptr) return;
    ++free_events_;
    if (bytes == 0) return;
    ++s->frees;
    // Two guarded subtractions, not one unchecked one: an accounting bug
    // (freeing more than is live) must surface as an `underflows` count in
    // the report, never as a wrapped 2^64-ish byte total.
    if (bytes > s->live_bytes || bytes > live_) {
      ++underflows_;
      live_ -= s->live_bytes <= live_ ? s->live_bytes : live_;
      s->live_bytes = 0;
      return;
    }
    s->live_bytes -= bytes;
    live_ -= bytes;
  }

  /// Resize accounting: a grow is one alloc event of the delta, a shrink one
  /// free event — matching cudaMalloc/cudaFree semantics for the registry
  /// even though the backing std::vector may keep its capacity.
  void resize(MemSlot* s, std::uint64_t old_bytes, std::uint64_t new_bytes) {
    if (new_bytes >= old_bytes) {
      alloc(s, new_bytes - old_bytes);
    } else {
      free(s, old_bytes - new_bytes);
    }
  }

  /// Name-keyed resize (host-side accounting; not on a hot path).
  void adjust(const char* name, std::uint64_t old_bytes,
              std::uint64_t new_bytes) {
    resize(slot(name), old_bytes, new_bytes);
  }

  /// Peak-holding gauge for storage observed rather than owned (the PGAS RPC
  /// queue's high-water mark, sampled at harvest time): raises the slot to
  /// `bytes` if above its current level, never lowers it.
  void gauge_peak(const char* name, std::uint64_t bytes) {
    MemSlot* s = slot(name);
    if (bytes > s->live_bytes) alloc(s, bytes - s->live_bytes);
  }

  std::uint64_t live_bytes() const { return live_; }
  std::uint64_t peak_live_bytes() const { return peak_live_; }
  std::uint64_t alloc_events() const { return alloc_events_; }
  std::uint64_t free_events() const { return free_events_; }
  std::uint64_t underflows() const { return underflows_; }

  MemReport report() const {
    MemReport rep;
    rep.live_bytes = live_;
    rep.peak_live_bytes = peak_live_;
    rep.alloc_events = alloc_events_;
    rep.free_events = free_events_;
    rep.underflows = underflows_;
    rep.buffers.assign(slots_.begin(), slots_.end());
    std::sort(rep.buffers.begin(), rep.buffers.end(),
              [](const MemSlot& a, const MemSlot& b) { return a.name < b.name; });
    return rep;
  }

 private:
  std::deque<MemSlot> slots_;
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t alloc_events_ = 0;
  std::uint64_t free_events_ = 0;
  std::uint64_t underflows_ = 0;
};

// ---------------------------------------------------------------------------
// OS RSS sampler
// ---------------------------------------------------------------------------

/// VmRSS / VmHWM in kB, as /proc/self/status reports them.
struct RssSample {
  std::uint64_t vm_rss_kb = 0;
  std::uint64_t vm_hwm_kb = 0;
};

/// Parses "VmRSS:\t  1234 kB"-style lines out of a /proc/<pid>/status text.
/// Split from the file read so tests can run it on a fixture.  Returns true
/// when at least one of the two fields was found.
inline bool parse_proc_status(std::string_view text, RssSample& out) {
  bool found = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    std::uint64_t* field = nullptr;
    if (line.substr(0, 6) == "VmRSS:") {
      field = &out.vm_rss_kb;
    } else if (line.substr(0, 6) == "VmHWM:") {
      field = &out.vm_hwm_kb;
    } else {
      continue;
    }
    std::uint64_t value = 0;
    bool digits = false;
    for (std::size_t i = 6; i < line.size(); ++i) {
      const char c = line[i];
      if (c >= '0' && c <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        digits = true;
      } else if (digits) {
        break;  // past the number (the " kB" unit suffix)
      }
    }
    if (digits) {
      *field = value;
      found = true;
    }
  }
  return found;
}

/// Reads /proc/self/status.  Returns zeros (and false) on platforms without
/// procfs, so callers degrade to registry-only reporting.
inline bool sample_rss(RssSample& out) {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return false;
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return parse_proc_status(std::string_view(buf, n), out);
}

/// Process-wide RSS sampling at phase boundaries.  Reading procfs costs
/// ~10us, far too much for every phase of every rank, so sample_phase()
/// keeps only every kStride-th call (counted, not timed, so the number of
/// samples a run takes is deterministic even though their values are not).
class RssSampler {
 public:
  static constexpr std::uint64_t kStride = 64;

  void sample_phase() {
    if (calls_.fetch_add(1, std::memory_order_relaxed) % kStride != 0) return;
    sample_now();
  }

  /// Unconditional sample (run start/end, report harvest).
  void sample_now() {
    RssSample s;
    if (!sample_rss(s)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++samples_;
    last_ = s;
    if (s.vm_rss_kb > peak_.vm_rss_kb) peak_.vm_rss_kb = s.vm_rss_kb;
    if (s.vm_hwm_kb > peak_.vm_hwm_kb) peak_.vm_hwm_kb = s.vm_hwm_kb;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.store(0, std::memory_order_relaxed);
    samples_ = 0;
    last_ = RssSample{};
    peak_ = RssSample{};
  }

  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }
  RssSample last() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_;
  }
  RssSample peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  mutable std::mutex mutex_;
  std::uint64_t samples_ = 0;
  RssSample last_;
  RssSample peak_;
};

/// The process-wide sampler (ranks are threads of one process; RSS is a
/// process quantity, so one sampler serves every track).
inline RssSampler& rss_sampler() {
  static RssSampler sampler;
  return sampler;
}

// ---------------------------------------------------------------------------
// Model / report side (memscope.cpp, linked into simcov_benchreport).
// ---------------------------------------------------------------------------

/// One row of the BENCH memory section's drift table: a category's measured
/// registry peak against the perfmodel memory model's prediction for the
/// same layout, exactly parallel to the time DriftRow (shares are fractions
/// of the respective totals; divergence = measured_share - modeled_share).
struct MemDriftRow {
  std::string category;
  double measured_bytes = 0.0;
  double measured_share = 0.0;
  double modeled_bytes = 0.0;
  double modeled_share = 0.0;
  double divergence = 0.0;
};

/// Builds memory drift rows from measured per-category peaks and modeled
/// per-category bytes (union of keys; rows ordered by category name).
std::vector<MemDriftRow> memory_drift_rows(
    const std::map<std::string, std::uint64_t>& measured,
    const std::map<std::string, double>& modeled);

/// Human-readable per-buffer table + category drift + RSS reconciliation
/// (simcov_main --memscope, bench stderr).
void print_memory_report(std::FILE* out, const MemReport& report,
                         const std::vector<MemDriftRow>& drift,
                         const RssSample& rss, std::uint64_t rss_samples);

}  // namespace simcov::obs
