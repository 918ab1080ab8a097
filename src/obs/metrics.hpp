#pragma once
// Per-rank runtime metrics registry with a step-level snapshot exporter.
//
// Where the tracer answers "when did this rank do what", the metrics
// registry answers "how much": cumulative counters (per-phase wall time,
// tile activations), gauges (last-observed values), histograms (RPC drain
// batch sizes), and per-step series (barrier wait per rank to expose skew,
// halo bytes, active-tile occupancy, voxels touched per step).  Every
// metric is keyed (name, rank) so cross-rank skew is directly visible.
//
// Snapshots export as JSON (default) or CSV (path ending in ".csv").  All
// maps are ordered, so for a fixed seed and rank count the exported
// structure — and every value that is not a wall-clock measurement — is
// bit-identical across runs (tested in tests/obs_test.cpp).
//
// Enabling: SIMCOV_METRICS=<path> in the environment, --metrics-out=<path>
// on simcov_main, or obs::metrics().enable(path); an empty path collects
// without auto-writing (used for the end-of-run phase table).  Disabled
// cost at a call site is one relaxed atomic load and one branch — callers
// must guard with `if (obs::metrics().enabled())`.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.hpp"

namespace simcov::obs {

/// Histogram summary: count / sum / min / max plus fixed log-spaced (base-2)
/// buckets, from which deterministic p50/p95/p99 estimates are exported.
/// Bucket index for a positive value v is floor(log2(v)) via std::ilogb —
/// pure bit inspection, no libm rounding variance — so for a fixed input
/// sequence the buckets (and therefore the quantiles and the JSON) are
/// bit-identical across runs.  Non-positive values land in a sentinel
/// underflow bucket.
struct HistSummary {
  /// Bucket index for values <= 0 (log-spaced buckets only cover v > 0).
  static constexpr int kUnderflowBucket = -10000;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// base-2 log bucket index -> observation count.
  std::map<int, std::uint64_t> buckets;

  static int bucket_of(double value);

  /// Deterministic quantile estimate (q in [0,1]): the upper bound 2^(i+1)
  /// of the bucket holding the ceil(q*count)-th smallest observation,
  /// clamped to [min, max].  Exact for the extremes, within one bucket
  /// (a factor of 2) elsewhere.
  double quantile(double q) const;
};

/// One per-(name,rank) step series with bounded retention.  Unbounded
/// growth (O(steps) per series) is capped: once `samples` would exceed the
/// registry's cap, every other retained sample is dropped and the keep
/// stride doubles, so a series always holds <= cap points spread evenly
/// across the whole run.  Downsampling depends only on the call sequence,
/// never on time, so the retained set is deterministic.
struct StepSeries {
  std::vector<std::pair<std::uint64_t, double>> samples;
  std::uint64_t seen = 0;    ///< total step_value() calls for this series
  std::uint64_t stride = 1;  ///< keep every stride-th call
};

class MetricsRegistry {
 public:
  /// Default per-series retention cap (samples per (name, rank)); override
  /// with set_series_cap / --series-cap=N / SIMCOV_SERIES_CAP.
  static constexpr std::size_t kDefaultSeriesCap = obs::kDefaultSeriesCap;

  /// Takes the series cap and, when set, the output path from
  /// obs::Config::from_env() (SIMCOV_SERIES_CAP, SIMCOV_METRICS).
  MetricsRegistry();
  /// Last-chance flush, mirroring the tracer.
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Starts collecting.  `out_path` may be empty (collect only).  Clears
  /// any previously collected data.
  void enable(std::string out_path = "");
  /// Stops collecting and discards all data.
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // ---- recording (thread-safe; no-ops when disabled) ----------------------
  void add(const std::string& name, int rank, double delta);       ///< counter
  void set(const std::string& name, int rank, double value);       ///< gauge
  void observe(const std::string& name, int rank, double value);   ///< histogram
  /// Appends one (step, value) sample to a per-rank series.
  void step_value(const std::string& name, int rank, std::uint64_t step,
                  double value);

  // ---- queries -------------------------------------------------------------
  double counter_value(const std::string& name, int rank) const;
  /// All counters: name -> rank -> value (sorted, for reports).
  std::map<std::string, std::map<int, double>> counters() const;
  /// Total recorded datapoints (used by the overhead bench to count sites).
  std::uint64_t datapoint_count() const;

  // ---- series retention ----------------------------------------------------
  /// Sets the per-series retention cap (samples per (name, rank) series);
  /// 0 disables capping.  Takes effect for subsequent step_value calls and
  /// survives enable()/disable() cycles, so the CLI can set it before the
  /// run enables collection.
  void set_series_cap(std::size_t cap);
  std::size_t series_cap() const;
  /// Retained sample count / current keep-stride of a series (tests; zero /
  /// one for unknown series).
  std::size_t series_size(const std::string& name, int rank) const;
  std::uint64_t series_stride(const std::string& name, int rank) const;

  // ---- export -------------------------------------------------------------
  std::string to_json() const;
  std::string to_csv() const;
  /// Writes JSON, or CSV when the path ends in ".csv".  Throws on failure.
  void write(const std::string& path) const;
  /// Writes to the enabled path, if any.
  void flush();
  std::string path() const;

 private:
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::string path_;
  std::uint64_t datapoints_ = 0;
  std::map<std::string, std::map<int, double>> counters_;
  std::map<std::string, std::map<int, double>> gauges_;
  std::map<std::string, std::map<int, HistSummary>> hists_;
  std::map<std::string, std::map<int, StepSeries>> series_;
  std::size_t series_cap_ = kDefaultSeriesCap;
  bool downsample_warned_ = false;  ///< one stderr warning per enable()
};

/// The process-wide registry (one process hosts all ranks).
MetricsRegistry& metrics();

}  // namespace simcov::obs
