#include "obs/config.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"

namespace simcov::obs {

namespace {

[[noreturn]] void reject(std::string_view name, std::string_view value,
                         const char* want) {
  throw Error(std::string(name) + " must be " + want + ", got '" +
              std::string(value) + "'");
}

bool parse_switch(std::string_view name, std::string_view v) {
  if (v == "0") return false;
  if (v == "1") return true;
  reject(name, v, "0 or 1");
}

std::size_t parse_count(std::string_view name, std::string_view v) {
  std::size_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (v.empty() || ec != std::errc{} || ptr != end) {
    reject(name, v, "a non-negative integer");
  }
  return n;
}

/// One knob: its three spellings and how a value lands in the Config.
/// `flag` omits the leading "--"; nullptr marks a missing spelling.
struct Knob {
  const char* env;
  const char* flag;
  const char* key;
  void (*set)(Config& c, std::string_view name, std::string_view value);
};

const Knob kKnobs[] = {
    {"SIMCOV_KERNEL_CHECK", nullptr, "kernel_check",
     [](Config& c, std::string_view n, std::string_view v) {
       c.permute = v == "permute";
       if (!c.permute && v != "0" && v != "1") reject(n, v, "0, 1 or permute");
       c.kernel_check = v != "0";
     }},
    {"SIMCOV_PGAS_CHECK", nullptr, nullptr,
     [](Config& c, std::string_view n, std::string_view v) {
       c.pgas_check = parse_switch(n, v);
     }},
    {"SIMCOV_PROFILE", "profile", "profile",
     [](Config& c, std::string_view n, std::string_view v) {
       c.profile = parse_switch(n, v);
     }},
    {"SIMCOV_MEMSCOPE", "memscope", "memscope",
     [](Config& c, std::string_view n, std::string_view v) {
       c.memscope = parse_switch(n, v);
     }},
    {"SIMCOV_CRITPATH", "critpath", "critpath",
     [](Config& c, std::string_view n, std::string_view v) {
       c.critpath = parse_switch(n, v);
     }},
    {"SIMCOV_TRACE", "trace", nullptr,
     [](Config& c, std::string_view, std::string_view v) {
       c.trace_path = v;
     }},
    {"SIMCOV_TRACE_RING", "trace-ring", nullptr,
     [](Config& c, std::string_view n, std::string_view v) {
       c.trace_ring = parse_count(n, v);
     }},
    {"SIMCOV_METRICS", "metrics-out", nullptr,
     [](Config& c, std::string_view, std::string_view v) {
       c.metrics_path = v;
     }},
    {"SIMCOV_SERIES_CAP", "series-cap", nullptr,
     [](Config& c, std::string_view n, std::string_view v) {
       c.series_cap = parse_count(n, v);
     }},
    {"SIMCOV_BENCH_DIR", nullptr, nullptr,
     [](Config& c, std::string_view, std::string_view v) {
       c.bench_dir = v;
     }},
};

}  // namespace

Config Config::from_env(const EnvLookup& lookup) {
  Config c;
  for (const Knob& k : kKnobs) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): the library never calls setenv.
    const char* v = lookup ? lookup(k.env) : std::getenv(k.env);
    if (v != nullptr && *v != '\0') k.set(c, k.env, v);
  }
  return c;
}

bool Config::apply_flag(std::string_view arg) {
  const std::size_t eq = arg.find('=');
  if (!arg.starts_with("--") || eq == std::string_view::npos) return false;
  const std::string_view flag = arg.substr(0, eq);
  for (const Knob& k : kKnobs) {
    if (k.flag != nullptr && flag.substr(2) == k.flag) {
      k.set(*this, flag, arg.substr(eq + 1));
      return true;
    }
  }
  return false;
}

bool Config::apply_key(std::string_view key, std::string_view value) {
  for (const Knob& k : kKnobs) {
    if (k.key != nullptr && key == k.key) {
      k.set(*this, key, value);
      return true;
    }
  }
  return false;
}

}  // namespace simcov::obs
