#pragma once
// Wall-clock span tracer.
//
// The perfmodel records *modeled* seconds; this layer records *measured*
// ones.  Every PGAS rank is a track; a span is a named wall-clock interval
// on a track (a simulation phase, a barrier wait, an RPC drain, a put).
// Spans land in a thread-safe ring buffer and are flushed as Chrome
// trace-event JSON ("traceEvents" array of "ph":"X" complete events), which
// loads directly in Perfetto or chrome://tracing with one named track per
// rank.
//
// Enabling: set SIMCOV_TRACE=<path> in the environment (picked up the first
// time the global tracer is touched), pass --trace=<path> to simcov_main,
// or call obs::tracer().enable(path) programmatically before the run.  An
// empty path collects spans in memory only (tests, overhead benches).
//
// Overhead contract: when tracing is disabled every span site costs one
// relaxed atomic load and one branch — no clock read, no lock, no
// allocation.  This is asserted by bench/obs_overhead.cpp.  When enabled,
// recording takes two steady_clock reads and one short mutex-guarded ring
// write.  When the ring is full the *oldest* spans are overwritten (the
// tail of a run is usually the interesting part) and a drop counter is
// kept.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simcov::obs {

/// Monotonic nanoseconds (std::chrono::steady_clock).
using Nanos = std::int64_t;
Nanos now_ns();

/// One numeric span argument; `key` must be a static string (same lifetime
/// contract as TraceEvent::name).
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// One completed span.  `name` must point at storage that outlives the
/// tracer (phase names and span-site literals are static strings).
///
/// Optional extras (all default-off, preserving aggregate-init call sites):
///  * up to kMaxArgs numeric args, exported as the Chrome event's "args";
///  * flow ids: a nonzero `flow_out` emits a flow-start ("ph":"s") at this
///    span's start, a nonzero `flow_in` emits a flow-finish ("ph":"f",
///    "bp":"e") bound to this span — Perfetto draws an arrow from the span
///    that emitted the same id as flow_out (cross-rank put -> apply links);
///  * `counter = true` exports the event as a Chrome counter sample
///    ("ph":"C") at start_ns instead of a complete span: Perfetto renders
///    each args key as a stacked counter track (MemScope's per-rank memory
///    sawtooth).  end_ns and flow ids are ignored for counter events.
struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  const char* name;
  int track;  ///< PGAS rank id; rendered as one named Perfetto track each
  Nanos start_ns;
  Nanos end_ns;
  std::uint64_t flow_out = 0;
  std::uint64_t flow_in = 0;
  bool counter = false;
  int num_args = 0;
  TraceArg args[kMaxArgs] = {};

  /// Appends an arg (ignored beyond kMaxArgs — fixed storage keeps the
  /// ring allocation-free).
  void add_arg(const char* key, double value) {
    if (num_args < kMaxArgs) args[num_args++] = {key, value};
  }
};

/// Process-wide unique flow id (never 0).  Pair one put-side span's
/// flow_out with the consuming span's flow_in.
std::uint64_t next_flow_id();

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// Enables tracing to obs::Config::from_env().trace_path when it is set
  /// (SIMCOV_TRACE).
  Tracer();
  /// Flushes to the configured path so SIMCOV_TRACE works for any binary
  /// even if it never calls flush() explicitly.
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts collecting.  `path` may be empty (collect only, no auto-flush).
  /// Resets the ring, the drop counter and the time origin.  `capacity` = 0
  /// (the default) resolves to the environment's trace_ring
  /// (SIMCOV_TRACE_RING), else kDefaultCapacity; an explicit positive
  /// capacity (tests, --trace-ring=N) always wins over the environment.
  void enable(std::string path, std::size_t capacity = 0);
  /// Stops collecting and discards buffered spans.
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span (thread-safe; no-op when disabled).
  void record(const char* name, int track, Nanos start_ns, Nanos end_ns);
  /// Appends a fully populated event (args / flow ids).
  void record(const TraceEvent& ev);

  std::size_t event_count() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const;
  std::string path() const;

  /// Buffered spans, oldest first (testing / programmatic consumption).
  std::vector<TraceEvent> events() const;

  /// Serializes the buffer as Chrome trace-event JSON.  Spans are sorted by
  /// start time (ties: longer span first) so per-track timestamps are
  /// monotonically non-decreasing and parents precede children.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Writes to `path` (throws simcov::Error if the file cannot be written).
  void write_json_file(const std::string& path) const;

  /// Writes to the enabled path, if any.  Safe to call repeatedly.
  void flush();

 private:
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t next_ = 0;  ///< ring write cursor
  bool wrapped_ = false;
  std::uint64_t dropped_ = 0;
  std::string path_;
  Nanos origin_ = 0;  ///< timestamps are exported relative to enable() time
};

/// The process-wide tracer.  Ranks are threads of one process, so one
/// tracer sees every track; enable/disable before starting a run.
Tracer& tracer();

/// RAII span: costs one branch when tracing is disabled (see Tracer docs).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int track)
      : name_(name), track_(track),
        start_(tracer().enabled() ? now_ns() : kInactive) {}
  ~ScopedSpan() {
    if (start_ != kInactive) tracer().record(name_, track_, start_, now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr Nanos kInactive = -1;
  const char* name_;
  int track_;
  Nanos start_;
};

}  // namespace simcov::obs
