// Observability layer: tracer ring semantics, Chrome-trace JSON validity
// (parseable, per-track monotone timestamps, properly nested spans), metrics
// registry recording/export, snapshot determinism for a fixed seed and rank
// count, and a multi-rank GPU run under the PGAS discipline checker with the
// tracer on.
//
// The tracer and registry are process-wide singletons; every test starts
// from and returns to the disabled state.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "harness/experiment.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/error.hpp"

namespace simcov {
namespace {

// ---- minimal JSON parser ---------------------------------------------------
// Just enough for the tracer / metrics output: objects, arrays, strings with
// the escapes our writers emit, numbers, booleans, null.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool operator==(const JsonValue&) const = default;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    require(pos_ == s_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void require(bool ok, const char* what) {
    if (!ok) throw Error(std::string("JSON parse error: ") + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    require(pos_ < s_.size(), "unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    require(peek() == c, "unexpected character");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool consume_word(const char* w) {
    const std::size_t n = std::string(w).size();
    if (s_.compare(pos_, n, w) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      expect('{');
      skip_ws();
      if (!consume('}')) {
        do {
          skip_ws();
          std::string key = string_lit();
          skip_ws();
          expect(':');
          v.obj.emplace(std::move(key), value());
          skip_ws();
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      expect('[');
      skip_ws();
      if (!consume(']')) {
        do {
          v.arr.push_back(value());
          skip_ws();
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = string_lit();
    } else if (consume_word("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (consume_word("false")) {
      v.kind = JsonValue::Kind::kBool;
    } else if (consume_word("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      v.kind = JsonValue::Kind::kNumber;
      char* end = nullptr;
      v.number = std::strtod(s_.c_str() + pos_, &end);
      require(end != s_.c_str() + pos_, "malformed number");
      pos_ = static_cast<std::size_t>(end - s_.c_str());
    }
    return v;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < s_.size(), "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        require(pos_ < s_.size(), "unterminated escape");
        const char e = s_[pos_++];
        if (e == 'u') {
          require(pos_ + 4 <= s_.size(), "short \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          out.push_back(static_cast<char>(code));  // our writers stay ASCII
        } else if (e == 'n') {
          out.push_back('\n');
        } else if (e == 't') {
          out.push_back('\t');
        } else {
          out.push_back(e);  // '"', '\\', '/'
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- shared helpers --------------------------------------------------------

void reset_obs() {
  obs::tracer().disable();
  obs::metrics().disable();
}

SimParams test_params() {
  SimParams p = SimParams::covid_default();
  p.dim_x = 48;
  p.dim_y = 48;
  p.dim_z = 1;
  p.num_steps = 16;  // >= 2 tile sweeps at the default check period of 8
  p.num_foi = 2;
  p.incubation_period = 10;
  p.tcell_initial_delay = 5;
  p.tcell_generation_rate = 4;
  p.seed = 7;
  return p;
}

void run_gpu_4ranks(const obs::Config& config = obs::Config::from_env()) {
  const SimParams p = test_params();
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.obs = config;
  harness::RunSpec spec;
  spec.params = p;
  (void)gpu::run_gpu_sim(p, spec.resolve_foi(), opt);
}

/// Exact nanoseconds from an exported microsecond timestamp (the writer
/// emits exactly three decimals, so round() recovers the integer).
std::int64_t ns_of(const JsonValue& us) {
  return std::llround(us.number * 1000.0);
}

// ---- tracer unit tests -----------------------------------------------------

TEST(Tracer, DisabledSpanSiteRecordsNothing) {
  reset_obs();
  {
    obs::ScopedSpan span("noop", 0);
  }
  obs::tracer().record("direct", 0, 1, 2);
  EXPECT_EQ(obs::tracer().event_count(), 0u);
  EXPECT_FALSE(obs::tracer().enabled());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  reset_obs();
  obs::tracer().enable("", /*capacity=*/4);
  static const char* const names[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (int i = 0; i < 6; ++i) {
    obs::tracer().record(names[i], 0, i * 10, i * 10 + 5);
  }
  EXPECT_EQ(obs::tracer().event_count(), 4u);
  EXPECT_EQ(obs::tracer().dropped(), 2u);
  const auto evs = obs::tracer().events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_STREQ(evs.front().name, "e2");  // oldest surviving, first out
  EXPECT_STREQ(evs.back().name, "e5");
  reset_obs();
}

TEST(Tracer, DisableMidSpanIsSafe) {
  reset_obs();
  obs::tracer().enable("");
  {
    obs::ScopedSpan span("interrupted", 0);
    obs::tracer().disable();
  }  // dtor records into a disabled tracer: must no-op
  EXPECT_EQ(obs::tracer().event_count(), 0u);
}

TEST(Tracer, EnvVarSetsRingCapacity) {
  reset_obs();
  ::setenv("SIMCOV_TRACE_RING", "8", 1);
  obs::tracer().enable("");
  EXPECT_EQ(obs::tracer().capacity(), 8u);
  for (int i = 0; i < 10; ++i) obs::tracer().record("e", 0, i, i + 1);
  EXPECT_EQ(obs::tracer().event_count(), 8u);
  EXPECT_EQ(obs::tracer().dropped(), 2u);
  obs::tracer().disable();

  // An explicit capacity beats the environment.
  obs::tracer().enable("", /*capacity=*/4);
  EXPECT_EQ(obs::tracer().capacity(), 4u);
  obs::tracer().disable();

  // Garbage in the environment is an error naming the variable.
  ::setenv("SIMCOV_TRACE_RING", "not-a-number", 1);
  try {
    obs::tracer().enable("");
    ADD_FAILURE() << "malformed SIMCOV_TRACE_RING accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SIMCOV_TRACE_RING"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(obs::tracer().enabled());
  ::unsetenv("SIMCOV_TRACE_RING");
  reset_obs();
}

// ---- obs::Config: the one knob surface -------------------------------------

/// A Config parsed from an environment holding only `name=value`.
obs::Config env_with(const char* name, const char* value) {
  return obs::Config::from_env([=](const char* n) {
    return std::string_view(n) == name ? value : nullptr;
  });
}

/// The error message a parse throws, or "" when it does not throw.
template <typename F>
std::string parse_error(F&& parse) {
  try {
    parse();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ObsConfig, EveryKnobFollowsOneRuleOnEverySurface) {
  // Each knob x {unset, valid, malformed} through the environment, the CLI
  // flag and the driver config key.  Paths accept any value, so they have
  // no malformed case.
  struct Row {
    const char* env;
    const char* flag;  ///< nullptr: no CLI flag
    const char* key;   ///< nullptr: no config key
    const char* valid;
    const char* malformed;  ///< nullptr: every value parses
    bool (*applied)(const obs::Config&);
  };
  const Row rows[] = {
      {"SIMCOV_KERNEL_CHECK", nullptr, "kernel_check", "permute", "yes",
       [](const obs::Config& c) { return c.kernel_check && c.permute; }},
      {"SIMCOV_PGAS_CHECK", nullptr, nullptr, "1", "true",
       [](const obs::Config& c) { return c.pgas_check; }},
      {"SIMCOV_PROFILE", "--profile", "profile", "1", "false",
       [](const obs::Config& c) { return c.profile; }},
      {"SIMCOV_MEMSCOPE", "--memscope", "memscope", "1", "on",
       [](const obs::Config& c) { return c.memscope; }},
      {"SIMCOV_CRITPATH", "--critpath", "critpath", "1", "2",
       [](const obs::Config& c) { return c.critpath; }},
      {"SIMCOV_TRACE", "--trace", nullptr, "t.json", nullptr,
       [](const obs::Config& c) { return c.trace_path == "t.json"; }},
      {"SIMCOV_TRACE_RING", "--trace-ring", nullptr, "8", "garbage",
       [](const obs::Config& c) { return c.trace_ring == 8; }},
      {"SIMCOV_METRICS", "--metrics-out", nullptr, "m.csv", nullptr,
       [](const obs::Config& c) { return c.metrics_path == "m.csv"; }},
      {"SIMCOV_SERIES_CAP", "--series-cap", nullptr, "2100", "-3",
       [](const obs::Config& c) { return c.series_cap == 2100; }},
      {"SIMCOV_BENCH_DIR", nullptr, nullptr, "/tmp/b", nullptr,
       [](const obs::Config& c) { return c.bench_dir == "/tmp/b"; }},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.env);
    EXPECT_FALSE(r.applied(env_with("SIMCOV_UNRELATED", "1")));  // unset
    EXPECT_FALSE(r.applied(env_with(r.env, "")));  // empty counts as unset
    EXPECT_TRUE(r.applied(env_with(r.env, r.valid)));
    if (r.malformed != nullptr) {
      const std::string err =
          parse_error([&] { (void)env_with(r.env, r.malformed); });
      EXPECT_NE(err.find(r.env), std::string::npos) << err;
    }
    if (r.flag != nullptr) {
      obs::Config c{};
      EXPECT_TRUE(c.apply_flag(std::string(r.flag) + "=" + r.valid));
      EXPECT_TRUE(r.applied(c));
      if (r.malformed != nullptr) {
        const std::string err = parse_error([&] {
          obs::Config{}.apply_flag(std::string(r.flag) + "=" + r.malformed);
        });
        EXPECT_NE(err.find(r.flag), std::string::npos) << err;
      }
    }
    if (r.key != nullptr) {
      obs::Config c{};
      EXPECT_TRUE(c.apply_key(r.key, r.valid));
      EXPECT_TRUE(r.applied(c));
      if (r.malformed != nullptr) {
        const std::string err =
            parse_error([&] { obs::Config{}.apply_key(r.key, r.malformed); });
        EXPECT_NE(err.find(r.key), std::string::npos) << err;
      }
    }
  }
  // An unset environment is the default Config.
  const obs::Config unset = env_with("SIMCOV_UNRELATED", "1");
  EXPECT_EQ(unset.series_cap, obs::MetricsRegistry::kDefaultSeriesCap);
  EXPECT_EQ(unset.trace_ring, 0u);
  EXPECT_EQ(unset.bench_dir, ".");
  // Anything that is not a knob is left to the caller.
  obs::Config c{};
  EXPECT_FALSE(c.apply_flag("--summary=all"));
  EXPECT_FALSE(c.apply_flag("--profile"));
  EXPECT_FALSE(c.apply_key("engine", "gpu"));
}

TEST(ObsConfig, CliBeatsEnvironment) {
  const obs::Config env = obs::Config::from_env([](const char* n) {
    const std::string_view name(n);
    if (name == "SIMCOV_SERIES_CAP") return "10";
    return name == "SIMCOV_PROFILE" || name == "SIMCOV_CRITPATH" ||
                   name == "SIMCOV_KERNEL_CHECK"
               ? "1"
               : nullptr;
  });
  ASSERT_TRUE(env.profile && env.critpath && env.kernel_check);
  obs::Config cli = env;
  EXPECT_TRUE(cli.apply_flag("--profile=0"));
  EXPECT_TRUE(cli.apply_key("critpath", "0"));
  EXPECT_TRUE(cli.apply_flag("--series-cap=0"));
  EXPECT_FALSE(cli.profile);
  EXPECT_FALSE(cli.critpath);
  EXPECT_EQ(cli.series_cap, 0u);
  EXPECT_TRUE(cli.kernel_check);  // knobs the CLI leaves alone keep env's
  // Explicit off beating the environment in the options structs is tested
  // end to end by KernelCheck.EnvVarEnablesAccessChecking and
  // PgasChecker.EnvEnabledCheckerCatchesViolations.
}

// ---- end-to-end trace validity --------------------------------------------

TEST(Trace, GpuRunProducesValidNestedJsonPerRankUnderChecker) {
  reset_obs();
  // The PGAS discipline checker runs alongside the tracer: the run must
  // stay violation-free (run_gpu_sim throws otherwise).
  obs::tracer().enable("");
  ASSERT_NO_THROW(run_gpu_4ranks({.pgas_check = true}));
  const std::string json = obs::tracer().to_json();
  reset_obs();

  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(json).parse());
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(root.obj.contains("traceEvents"));
  EXPECT_EQ(root.obj.at("otherData").obj.at("dropped_events").number, 0.0);

  const auto& events = root.obj.at("traceEvents").arr;
  ASSERT_FALSE(events.empty());

  std::map<int, std::string> track_names;
  std::map<int, std::vector<const JsonValue*>> by_track;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const std::string& ph = e.obj.at("ph").str;
    const int tid = static_cast<int>(e.obj.at("tid").number);
    if (ph == "M") {
      if (e.obj.at("name").str == "thread_name") {
        track_names[tid] = e.obj.at("args").obj.at("name").str;
      }
      continue;
    }
    if (ph == "s" || ph == "f") {
      // put->apply flow events: point events binding cross-track spans;
      // they carry an id but no duration, so they stay out of the
      // nesting/monotonicity checks below.
      EXPECT_EQ(e.obj.at("cat").str, "flow");
      EXPECT_GT(e.obj.at("id").number, 0.0);
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_EQ(static_cast<int>(e.obj.at("pid").number), 1);
    EXPECT_FALSE(e.obj.at("name").str.empty());
    by_track[tid].push_back(&e);
  }

  // One named track per rank.
  ASSERT_EQ(by_track.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(by_track.contains(r)) << "missing track for rank " << r;
    ASSERT_TRUE(track_names.contains(r));
    EXPECT_EQ(track_names.at(r), "rank " + std::to_string(r));
  }

  // Every step() phase appears as a span on every rank's track, plus the
  // step envelope and the runtime's barrier spans.
  const char* const required[] = {"step",   "t_cells",        "epithelial",
                                  "halo",   "concentrations", "tile_sweep",
                                  "reduce_stats", "barrier"};
  for (const auto& [tid, evs] : by_track) {
    std::map<std::string, int> seen;
    for (const JsonValue* e : evs) ++seen[e->obj.at("name").str];
    for (const char* name : required) {
      EXPECT_GT(seen[name], 0) << "rank " << tid << " lacks span " << name;
    }
  }

  // Per-track: timestamps monotonically non-decreasing in file order, and
  // spans properly nested (a span begun inside another ends inside it).
  for (const auto& [tid, evs] : by_track) {
    std::int64_t prev_ts = std::numeric_limits<std::int64_t>::min();
    std::vector<std::pair<std::int64_t, std::int64_t>> stack;
    for (const JsonValue* e : evs) {
      const std::int64_t ts = ns_of(e->obj.at("ts"));
      const std::int64_t end = ts + ns_of(e->obj.at("dur"));
      EXPECT_GE(ts, prev_ts) << "track " << tid << " timestamps regress";
      prev_ts = ts;
      while (!stack.empty() && stack.back().second <= ts) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(end, stack.back().second)
            << "track " << tid << " span '" << e->obj.at("name").str
            << "' half-overlaps its enclosing span";
      }
      stack.emplace_back(ts, end);
    }
  }
}

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, DisabledRecordingIsNoOp) {
  reset_obs();
  obs::metrics().add("c", 0, 1.0);
  obs::metrics().set("g", 0, 2.0);
  obs::metrics().observe("h", 0, 3.0);
  obs::metrics().step_value("s", 0, 0, 4.0);
  EXPECT_EQ(obs::metrics().datapoint_count(), 0u);
  EXPECT_EQ(obs::metrics().counter_value("c", 0), 0.0);
}

TEST(Metrics, RecordsAndExportsAllKinds) {
  reset_obs();
  obs::metrics().enable("");
  obs::metrics().add("phase.t_cells.wall_ns", 0, 100.0);
  obs::metrics().add("phase.t_cells.wall_ns", 0, 50.0);
  obs::metrics().add("phase.t_cells.wall_ns", 1, 60.0);
  obs::metrics().set("gauge.x", 0, -2.5);
  obs::metrics().observe("pgas.rpc_batch", 0, 3.0);
  obs::metrics().observe("pgas.rpc_batch", 0, 7.0);
  obs::metrics().step_value("gpu.halo_bytes", 1, 0, 1024.0);
  obs::metrics().step_value("gpu.halo_bytes", 1, 1, 2048.0);

  EXPECT_EQ(obs::metrics().counter_value("phase.t_cells.wall_ns", 0), 150.0);
  EXPECT_EQ(obs::metrics().datapoint_count(), 8u);

  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(obs::metrics().to_json()).parse());
  EXPECT_EQ(root.obj.at("counters")
                .obj.at("phase.t_cells.wall_ns")
                .obj.at("1")
                .number,
            60.0);
  EXPECT_EQ(root.obj.at("gauges").obj.at("gauge.x").obj.at("0").number, -2.5);
  const auto& hist =
      root.obj.at("histograms").obj.at("pgas.rpc_batch").obj.at("0").obj;
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_EQ(hist.at("sum").number, 10.0);
  EXPECT_EQ(hist.at("min").number, 3.0);
  EXPECT_EQ(hist.at("max").number, 7.0);
  const auto& series =
      root.obj.at("series").obj.at("gpu.halo_bytes").obj.at("1").arr;
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[1].arr[0].number, 1.0);
  EXPECT_EQ(series[1].arr[1].number, 2048.0);

  const std::string csv = obs::metrics().to_csv();
  EXPECT_NE(csv.find("kind,name,rank,step,value"), std::string::npos);
  EXPECT_NE(csv.find("series,gpu.halo_bytes,1,1,2048"), std::string::npos);
  reset_obs();
}

TEST(Metrics, HistogramQuantilesAreDeterministic) {
  // Quantiles come from fixed log-2 buckets, not from stored samples: the
  // same multiset of observations — in any order — must yield bit-identical
  // buckets, p50/p95/p99 and therefore bit-identical JSON.
  reset_obs();
  obs::metrics().enable("");
  for (int i = 100; i >= 1; --i) {  // 1..100, reversed insertion order
    obs::metrics().observe("h", 0, static_cast<double>(i));
  }
  const std::string json1 = obs::metrics().to_json();
  const std::string json2 = obs::metrics().to_json();
  EXPECT_EQ(json1, json2);

  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(json1).parse());
  const auto& h = root.obj.at("histograms").obj.at("h").obj.at("0").obj;
  EXPECT_EQ(h.at("count").number, 100.0);
  // 1..100 over base-2 buckets: rank 50 lands in bucket [32,64) -> upper
  // bound 64; ranks 95 and 99 land in [64,128) -> clamped to max = 100.
  EXPECT_EQ(h.at("p50").number, 64.0);
  EXPECT_EQ(h.at("p95").number, 100.0);
  EXPECT_EQ(h.at("p99").number, 100.0);
  const auto& buckets = h.at("buckets").obj;
  EXPECT_EQ(buckets.at("0").number, 1.0);    // {1}
  EXPECT_EQ(buckets.at("1").number, 2.0);    // {2,3}
  EXPECT_EQ(buckets.at("5").number, 32.0);   // {32..63}
  EXPECT_EQ(buckets.at("6").number, 37.0);   // {64..100}
  obs::metrics().disable();

  // Same observations in a different order: identical summary.
  obs::metrics().enable("");
  for (int i = 1; i <= 100; ++i) {
    obs::metrics().observe("h", 0, static_cast<double>(i));
  }
  EXPECT_EQ(obs::metrics().to_json(), json1);
  obs::metrics().disable();

  // Non-positive and non-finite values funnel into the underflow bucket;
  // their quantile is the tracked minimum.
  obs::HistSummary u{};
  u.min = std::numeric_limits<double>::infinity();
  u.max = -std::numeric_limits<double>::infinity();
  for (double v : {0.0, -5.0}) {
    ++u.count;
    u.sum += v;
    u.min = std::min(u.min, v);
    u.max = std::max(u.max, v);
    ++u.buckets[obs::HistSummary::bucket_of(v)];
  }
  EXPECT_EQ(u.buckets.count(obs::HistSummary::kUnderflowBucket), 1u);
  EXPECT_EQ(u.quantile(0.5), -5.0);
  reset_obs();
}

TEST(Metrics, GpuSnapshotDeterministicForFixedSeedAndRanks) {
  // Two identical runs must export bit-identical values for every metric
  // that is not a wall-clock measurement.  (Timing metrics — *.wall_ns,
  // pgas.barrier_wait_ns, pgas.rpc_batch — are structurally present but
  // their values are machine noise, so they are excluded.)
  reset_obs();
  auto capture = [] {
    obs::metrics().enable("");
    run_gpu_4ranks();
    const std::string json = obs::metrics().to_json();
    obs::metrics().disable();
    return JsonParser(json).parse();
  };
  const JsonValue a = capture();
  const JsonValue b = capture();

  const char* const deterministic[] = {"gpu.halo_bytes", "gpu.active_tiles",
                                       "gpu.tile_occupancy",
                                       "gpu.voxels_touched"};
  const auto& sa = a.obj.at("series").obj;
  const auto& sb = b.obj.at("series").obj;
  for (const char* name : deterministic) {
    ASSERT_TRUE(sa.contains(name)) << "missing series " << name;
    ASSERT_TRUE(sb.contains(name));
    EXPECT_EQ(sa.at(name), sb.at(name)) << "series " << name << " varies";
    // All four ranks reported the full run.
    ASSERT_EQ(sa.at(name).obj.size(), 4u);
    for (const auto& [rank, sv] : sa.at(name).obj) {
      EXPECT_EQ(sv.arr.size(), 16u) << name << " rank " << rank;
    }
  }
  // Wall-clock series exist (values intentionally not compared).
  EXPECT_TRUE(sa.contains("pgas.barrier_wait_ns"));
  EXPECT_TRUE(a.obj.at("counters").obj.contains("step.wall_ns"));
  EXPECT_TRUE(a.obj.at("counters").obj.contains("phase.halo.wall_ns"));
  // Tile churn gauges from the active-tile set.
  EXPECT_TRUE(a.obj.at("gauges").obj.contains("gpu.tile_activations"));
}

// ---- harness glue ----------------------------------------------------------

TEST(Harness, ConfigureObservabilityRejectsUnwritablePaths) {
  reset_obs();
  EXPECT_THROW(harness::configure_observability(
                   {.trace_path = "/nonexistent-simcov-dir/trace.json"}),
               Error);
  EXPECT_THROW(harness::configure_observability(
                   {.metrics_path = "/nonexistent-simcov-dir/metrics.csv"}),
               Error);
  // Failed configuration must not leave a collector half-enabled.
  EXPECT_FALSE(obs::tracer().enabled());
  EXPECT_FALSE(obs::metrics().enabled());
}

TEST(Harness, FinishObservabilityIsSafeWhenDisabled) {
  reset_obs();
  EXPECT_NO_THROW(harness::finish_observability());
}

// ---- bench reports ---------------------------------------------------------

TEST(BenchReport, EmitsSchemaValidJsonWithConsistentCommMatrix) {
  reset_obs();
  obs::BenchReport rep("unit_test");
  rep.set_context("unit experiment", "paper cfg \"quoted\"", "our cfg");

  // Two ranks with asymmetric peer traffic, assembled the way Reporter does.
  std::vector<pgas::CommStats> by_rank(2);
  by_rank[0].puts = 3;
  by_rank[0].put_bytes = 300;
  by_rank[0].rpcs_sent = 2;
  by_rank[0].rpc_bytes = 20;
  by_rank[0].peers[1] = pgas::PeerStats{2, 20, 3, 300};
  by_rank[1].puts = 1;
  by_rank[1].put_bytes = 64;
  by_rank[1].peers[0] = pgas::PeerStats{0, 0, 1, 64};

  obs::BenchConfig cfg;
  cfg.label = "cfg a";
  cfg.backend = "gpu";
  cfg.ranks = 2;
  cfg.params = {{"dim_x", 48.0}, {"seed", 7.0}};
  cfg.measured_wall_s = 0.25;
  cfg.modeled_s = 1.5;
  cfg.measured_by_phase_s = {{"halo", 0.1}, {"t_cells", 0.15}};
  cfg.modeled_by_phase_s = {{"halo", 0.5}, {"t_cells", 1.0}};
  for (const auto& s : by_rank) cfg.comm_total += s;
  cfg.comm_matrix = obs::BenchReport::matrix_from(by_rank);
  rep.add_config(cfg);
  rep.add_shape_check("unit claim", true);
  rep.add_metric("answer", 42.0);

  // Deterministic serialization.
  const std::string json = rep.to_json();
  EXPECT_EQ(json, rep.to_json());

  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(json).parse());
  EXPECT_EQ(root.obj.at("schema").str, "simcov-bench/1");
  EXPECT_EQ(root.obj.at("bench").str, "unit_test");
  EXPECT_EQ(root.obj.at("paper_config").str, "paper cfg \"quoted\"");
  EXPECT_FALSE(root.obj.at("machine").obj.at("compiler").str.empty());

  const auto& c = root.obj.at("configs").arr.at(0).obj;
  EXPECT_EQ(c.at("label").str, "cfg a");
  EXPECT_EQ(c.at("ranks").number, 2.0);
  EXPECT_EQ(c.at("params").obj.at("dim_x").number, 48.0);
  EXPECT_EQ(c.at("measured_wall_s").number, 0.25);
  EXPECT_EQ(c.at("modeled_s").number, 1.5);

  // The comm matrix must sum exactly to the aggregate counters — the same
  // invariant tools/check_bench.py enforces on every report.
  const auto& comm = c.at("comm").obj;
  const auto& matrix = comm.at("matrix").arr;
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_EQ(comm.at("matrix_pairs").number, 2.0);
  EXPECT_EQ(comm.at("matrix_max_put_bytes").number, 300.0);
  double puts = 0, put_bytes = 0, rpcs = 0, rpc_bytes = 0;
  for (const JsonValue& e : matrix) {
    puts += e.obj.at("puts").number;
    put_bytes += e.obj.at("put_bytes").number;
    rpcs += e.obj.at("rpcs").number;
    rpc_bytes += e.obj.at("rpc_bytes").number;
  }
  EXPECT_EQ(puts, comm.at("puts").number);
  EXPECT_EQ(put_bytes, comm.at("put_bytes").number);
  EXPECT_EQ(rpcs, comm.at("rpcs_sent").number);
  EXPECT_EQ(rpc_bytes, comm.at("rpc_bytes").number);
  // Edges sorted by (src,dst).
  EXPECT_EQ(matrix.at(0).obj.at("src").number, 0.0);
  EXPECT_EQ(matrix.at(1).obj.at("src").number, 1.0);

  EXPECT_EQ(root.obj.at("shape_checks").arr.at(0).obj.at("claim").str,
            "unit claim");
  EXPECT_TRUE(root.obj.at("shape_checks").arr.at(0).obj.at("ok").boolean);
  EXPECT_EQ(root.obj.at("metrics").obj.at("answer").number, 42.0);

  // write() honours SIMCOV_BENCH_DIR and writes exactly to_json().
  ::setenv("SIMCOV_BENCH_DIR", ::testing::TempDir().c_str(), 1);
  const std::string path = rep.path();
  EXPECT_NE(path.find("BENCH_unit_test.json"), std::string::npos);
  rep.write();
  ::unsetenv("SIMCOV_BENCH_DIR");
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::ostringstream read_back;
  read_back << f.rdbuf();
  EXPECT_EQ(read_back.str(), json);
}

TEST(BenchReport, DriftRowsComputedFromPhaseCounters) {
  // drift_from sums the per-rank PhaseClock counters and compares shares
  // against the modeled per-phase costs.
  std::map<std::string, std::map<int, double>> counters;
  counters["phase.halo.wall_ns"] = {{0, 1e9}, {1, 1e9}};      // 2 s measured
  counters["phase.t_cells.wall_ns"] = {{0, 3e9}, {1, 3e9}};   // 6 s measured
  perfmodel::RunCost cost{};
  cost.by_phase[static_cast<int>(perfmodel::Phase::kHalo)] = 1.0;
  cost.by_phase[static_cast<int>(perfmodel::Phase::kTCells)] = 1.0;
  const auto rows = obs::BenchReport::drift_from(counters, cost);
  ASSERT_EQ(rows.size(), 2u);
  // Rows come back in canonical phase order: t_cells before halo.
  EXPECT_EQ(rows[0].phase, "t_cells");
  EXPECT_DOUBLE_EQ(rows[0].measured_s, 6.0);
  EXPECT_DOUBLE_EQ(rows[0].measured_share, 0.75);
  EXPECT_DOUBLE_EQ(rows[0].modeled_share, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].divergence, 0.25);
  EXPECT_EQ(rows[1].phase, "halo");
  EXPECT_DOUBLE_EQ(rows[1].measured_s, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].divergence, -0.25);
}

}  // namespace
}  // namespace simcov
