#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace simcov::obs {

namespace {

/// Shortest representation that round-trips a double (shared with the bench
/// report writer via obs/json.hpp).
std::string num(double v) { return json_num(v); }

template <typename PerRank, typename EmitValue>
void json_group(std::ostream& os, const char* key,
                const std::map<std::string, PerRank>& group,
                EmitValue&& emit_value, bool& first_group) {
  if (!first_group) os << ",\n";
  first_group = false;
  os << "\"" << key << "\":{";
  bool first_name = true;
  for (const auto& [name, ranks] : group) {
    if (!first_name) os << ",";
    first_name = false;
    os << "\n  \"";
    json_escape(os, name);
    os << "\":{";
    bool first_rank = true;
    for (const auto& [rank, value] : ranks) {
      if (!first_rank) os << ",";
      first_rank = false;
      os << "\"" << rank << "\":";
      emit_value(os, value);
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

int HistSummary::bucket_of(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return kUnderflowBucket;
  return std::ilogb(value);
}

double HistSummary::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based; ceil without floating error
  // for the q*count products we use (0.5/0.95/0.99 of 64-bit counts).
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  if (target > count) target = count;
  std::uint64_t cum = 0;
  for (const auto& [idx, n] : buckets) {
    cum += n;
    if (cum >= target) {
      if (idx == kUnderflowBucket) return min;
      // Upper edge of bucket [2^idx, 2^(idx+1)), clamped so the estimate
      // never leaves the observed range.
      return std::clamp(std::ldexp(1.0, idx + 1), min, max);
    }
  }
  return max;  // unreachable for consistent counts; safe fallback
}

MetricsRegistry::MetricsRegistry() {
  const Config c = Config::from_env();
  series_cap_ = c.series_cap;
  if (!c.metrics_path.empty()) enable(c.metrics_path);
}

MetricsRegistry::~MetricsRegistry() {
  try {
    flush();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "simcov: metrics flush failed: %s\n", ex.what());
  }
}

void MetricsRegistry::enable(std::string out_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(out_path);
  datapoints_ = 0;
  counters_.clear();
  gauges_.clear();
  hists_.clear();
  series_.clear();
  downsample_warned_ = false;
  enabled_.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::disable() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  path_.clear();
  counters_.clear();
  gauges_.clear();
  hists_.clear();
  series_.clear();
}

void MetricsRegistry::add(const std::string& name, int rank, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  counters_[name][rank] += delta;
  ++datapoints_;
}

void MetricsRegistry::set(const std::string& name, int rank, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  gauges_[name][rank] = value;
  ++datapoints_;
}

void MetricsRegistry::observe(const std::string& name, int rank,
                              double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  HistSummary& h = hists_[name][rank];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[HistSummary::bucket_of(value)];
  ++datapoints_;
}

void MetricsRegistry::step_value(const std::string& name, int rank,
                                 std::uint64_t step, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  StepSeries& s = series_[name][rank];
  ++datapoints_;
  // Keep every stride-th call (counted from the first), so after each 2x
  // downsampling the retained points stay evenly spaced over the run.
  const std::uint64_t ordinal = s.seen++;
  if (ordinal % s.stride != 0) return;
  s.samples.emplace_back(step, value);
  if (series_cap_ == 0 || s.samples.size() <= series_cap_) return;
  if (!downsample_warned_) {
    downsample_warned_ = true;
    std::fprintf(stderr,
                 "simcov: metrics series \"%s\" (rank %d) reached the "
                 "retention cap of %zu samples; downsampling 2x (override "
                 "with --series-cap=N / SIMCOV_SERIES_CAP, 0 = unlimited)\n",
                 name.c_str(), rank, series_cap_);
  }
  // Drop every other retained sample (keep even indices, which are the
  // calls at multiples of the doubled stride) and double the stride.
  std::size_t w = 0;
  for (std::size_t i = 0; i < s.samples.size(); i += 2) {
    s.samples[w++] = s.samples[i];
  }
  s.samples.resize(w);
  s.stride *= 2;
}

double MetricsRegistry::counter_value(const std::string& name,
                                      int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0.0;
  auto jt = it->second.find(rank);
  return jt == it->second.end() ? 0.0 : jt->second;
}

std::map<std::string, std::map<int, double>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t MetricsRegistry::datapoint_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return datapoints_;
}

void MetricsRegistry::set_series_cap(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_cap_ = cap;
}

std::size_t MetricsRegistry::series_cap() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_cap_;
}

namespace {

const StepSeries* find_series(
    const std::map<std::string, std::map<int, StepSeries>>& series,
    const std::string& name, int rank) {
  auto it = series.find(name);
  if (it == series.end()) return nullptr;
  auto jt = it->second.find(rank);
  return jt == it->second.end() ? nullptr : &jt->second;
}

}  // namespace

std::size_t MetricsRegistry::series_size(const std::string& name,
                                         int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const StepSeries* s = find_series(series_, name, rank);
  return s == nullptr ? 0 : s->samples.size();
}

std::uint64_t MetricsRegistry::series_stride(const std::string& name,
                                             int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const StepSeries* s = find_series(series_, name, rank);
  return s == nullptr ? 1 : s->stride;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  json_group(os, "counters", counters_,
             [](std::ostream& o, double v) { o << num(v); }, first);
  json_group(os, "gauges", gauges_,
             [](std::ostream& o, double v) { o << num(v); }, first);
  json_group(os, "histograms", hists_,
             [](std::ostream& o, const HistSummary& h) {
               o << "{\"count\":" << h.count << ",\"sum\":" << num(h.sum)
                 << ",\"min\":" << num(h.min) << ",\"max\":" << num(h.max)
                 << ",\"p50\":" << num(h.quantile(0.50))
                 << ",\"p95\":" << num(h.quantile(0.95))
                 << ",\"p99\":" << num(h.quantile(0.99)) << ",\"buckets\":{";
               bool f = true;
               for (const auto& [idx, n] : h.buckets) {
                 if (!f) o << ",";
                 f = false;
                 o << "\"" << idx << "\":" << n;
               }
               o << "}}";
             },
             first);
  json_group(os, "series", series_,
             [](std::ostream& o, const StepSeries& sv) {
               o << "[";
               bool f = true;
               for (const auto& [step, v] : sv.samples) {
                 if (!f) o << ",";
                 f = false;
                 o << "[" << step << "," << num(v) << "]";
               }
               o << "]";
             },
             first);
  os << "\n}\n";
  return os.str();
}

std::string MetricsRegistry::to_csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "kind,name,rank,step,value\n";
  for (const auto& [name, ranks] : counters_) {
    for (const auto& [rank, v] : ranks) {
      os << "counter," << name << "," << rank << ",," << num(v) << "\n";
    }
  }
  for (const auto& [name, ranks] : gauges_) {
    for (const auto& [rank, v] : ranks) {
      os << "gauge," << name << "," << rank << ",," << num(v) << "\n";
    }
  }
  for (const auto& [name, ranks] : hists_) {
    for (const auto& [rank, h] : ranks) {
      os << "histogram_count," << name << "," << rank << ",," << h.count
         << "\n";
      os << "histogram_sum," << name << "," << rank << ",," << num(h.sum)
         << "\n";
      os << "histogram_min," << name << "," << rank << ",," << num(h.min)
         << "\n";
      os << "histogram_max," << name << "," << rank << ",," << num(h.max)
         << "\n";
      os << "histogram_p50," << name << "," << rank << ",,"
         << num(h.quantile(0.50)) << "\n";
      os << "histogram_p95," << name << "," << rank << ",,"
         << num(h.quantile(0.95)) << "\n";
      os << "histogram_p99," << name << "," << rank << ",,"
         << num(h.quantile(0.99)) << "\n";
    }
  }
  for (const auto& [name, ranks] : series_) {
    for (const auto& [rank, sv] : ranks) {
      for (const auto& [step, v] : sv.samples) {
        os << "series," << name << "," << rank << "," << step << ","
           << num(v) << "\n";
      }
    }
  }
  return os.str();
}

void MetricsRegistry::write(const std::string& file_path) const {
  const bool csv = file_path.size() >= 4 &&
                   file_path.compare(file_path.size() - 4, 4, ".csv") == 0;
  std::ofstream f(file_path, std::ios::trunc);
  SIMCOV_REQUIRE(f.good(),
                 "cannot open metrics file for writing: " + file_path);
  f << (csv ? to_csv() : to_json());
  f.flush();
  SIMCOV_REQUIRE(f.good(), "failed writing metrics file: " + file_path);
}

void MetricsRegistry::flush() {
  std::string p = path();
  if (!enabled() || p.empty()) return;
  write(p);
}

std::string MetricsRegistry::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

MetricsRegistry& metrics() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace simcov::obs
