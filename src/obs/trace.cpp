#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace simcov::obs {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() {
  const Config c = Config::from_env();
  if (!c.trace_path.empty()) enable(c.trace_path, c.trace_ring);
}

Tracer::~Tracer() {
  // Last-chance flush for SIMCOV_TRACE users that exit without calling
  // flush(); a write failure here can only be reported, not thrown.
  try {
    flush();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "simcov: trace flush failed: %s\n", ex.what());
  }
}

void Tracer::enable(std::string path, std::size_t capacity) {
  // Re-read on every enable() so long-lived processes pick up the
  // environment's ring size between runs.
  if (capacity == 0) capacity = Config::from_env().trace_ring;
  if (capacity == 0) capacity = kDefaultCapacity;
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  next_ = 0;
  wrapped_ = false;
  dropped_ = 0;
  origin_ = now_ns();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  path_.clear();
}

void Tracer::record(const char* name, int track, Nanos start_ns,
                    Nanos end_ns) {
  record(TraceEvent{name, track, start_ns, end_ns});
}

void Tracer::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;  // disabled mid-span
  TraceEvent ev = event;
  ev.end_ns = std::max(ev.start_ns, ev.end_ns);
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    next_ = ring_.size() % capacity_;
  } else {
    ring_[next_] = ev;  // overwrite the oldest
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
    ++dropped_;
  }
}

std::uint64_t next_flow_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::string Tracer::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
}

/// Microseconds with nanosecond resolution, printed exactly (ns/1000 has at
/// most three decimals), so parsed timestamps compare without rounding
/// surprises.
void write_us(std::ostream& os, Nanos ns) {
  const char sign = ns < 0 ? '-' : '\0';
  const std::uint64_t abs_ns =
      sign ? static_cast<std::uint64_t>(-ns) : static_cast<std::uint64_t>(ns);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%llu.%03llu", sign ? "-" : "",
                static_cast<unsigned long long>(abs_ns / 1000),
                static_cast<unsigned long long>(abs_ns % 1000));
  os << buf;
}

}  // namespace

void Tracer::write_json(std::ostream& os) const {
  std::vector<TraceEvent> evs = events();
  Nanos origin;
  std::uint64_t dropped_count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    origin = origin_;
    dropped_count = dropped_;
  }
  // Sorted by start time; ties put the longer (enclosing) span first so a
  // parent always precedes its children on a track.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.end_ns > b.end_ns;
                   });
  std::vector<int> tracks;
  for (const TraceEvent& e : evs) tracks.push_back(e.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << dropped_count << "},\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  sep();
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
     << R"("args":{"name":"simcov"}})";
  for (int t : tracks) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << t
       << R"(,"args":{"name":"rank )" << t << R"("}})";
  }
  for (const TraceEvent& e : evs) {
    // Counter samples ("ph":"C"): instantaneous, one numeric track per args
    // key.  tid keys the counter to its rank like the span tracks do.
    if (e.counter) {
      sep();
      os << R"({"name":")";
      write_escaped(os, e.name);
      os << R"(","ph":"C","cat":"simcov","pid":1,"tid":)" << e.track
         << ",\"ts\":";
      write_us(os, e.start_ns - origin);
      os << ",\"args\":{";
      for (int a = 0; a < e.num_args; ++a) {
        if (a > 0) os << ",";
        os << "\"";
        write_escaped(os, e.args[a].key);
        os << "\":" << json_num(e.args[a].value);
      }
      os << "}}";
      continue;
    }
    sep();
    os << R"({"name":")";
    write_escaped(os, e.name);
    os << R"(","ph":"X","cat":"simcov","pid":1,"tid":)" << e.track
       << ",\"ts\":";
    write_us(os, e.start_ns - origin);
    os << ",\"dur\":";
    write_us(os, e.end_ns - e.start_ns);
    if (e.num_args > 0) {
      os << ",\"args\":{";
      for (int a = 0; a < e.num_args; ++a) {
        if (a > 0) os << ",";
        os << "\"";
        write_escaped(os, e.args[a].key);
        os << "\":" << json_num(e.args[a].value);
      }
      os << "}";
    }
    os << "}";
    // Flow events: a start ("s") on the producing span's track and a finish
    // ("f","bp":"e") bound to the consuming span, sharing the id.  Emitted
    // at the spans' start timestamps so each lies inside its slice; the
    // producing span sorts first (puts happen before the post-barrier read),
    // which Chrome's flow binding requires.
    if (e.flow_out != 0) {
      sep();
      os << R"({"name":"comm","cat":"flow","ph":"s","pid":1,"tid":)"
         << e.track << ",\"ts\":";
      write_us(os, e.start_ns - origin);
      os << ",\"id\":" << e.flow_out << "}";
    }
    if (e.flow_in != 0) {
      sep();
      os << R"({"name":"comm","cat":"flow","ph":"f","bp":"e","pid":1,"tid":)"
         << e.track << ",\"ts\":";
      write_us(os, e.start_ns - origin);
      os << ",\"id\":" << e.flow_in << "}";
    }
  }
  os << "\n]}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Tracer::write_json_file(const std::string& file_path) const {
  std::ofstream f(file_path, std::ios::trunc);
  SIMCOV_REQUIRE(f.good(), "cannot open trace file for writing: " + file_path);
  write_json(f);
  f.flush();
  SIMCOV_REQUIRE(f.good(), "failed writing trace file: " + file_path);
}

void Tracer::flush() {
  std::string p = path();
  if (!enabled() || p.empty()) return;
  write_json_file(p);
  // Saturation is otherwise only visible inside the JSON's otherData, which
  // nobody reads until the trace looks mysteriously truncated.
  const std::uint64_t d = dropped();
  if (d > 0) {
    std::fprintf(stderr,
                 "simcov: trace ring saturated: %llu oldest spans were "
                 "overwritten (capacity %zu); raise it with --trace-ring=N "
                 "or SIMCOV_TRACE_RING=N\n",
                 static_cast<unsigned long long>(d), capacity());
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace simcov::obs
