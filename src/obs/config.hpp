#pragma once
// obs::Config: the one configuration surface for every instrument.
//
// The six instrument switches (KernelCheck and its schedule permutation,
// KernelProf, MemScope, CritPath, the PGAS discipline checker) and the
// collector settings (trace and metrics paths, trace ring size, series cap,
// bench report directory) live in this one struct.  Every options struct
// that turns an instrument on — gpusim::DeviceOptions and spmd::RunSetup
// (the base of spmd::RunOptions, so of {Cpu,Gpu}SimOptions, and of
// harness::RunSpec) — carries a Config, nothing else; pgas::Runtime takes
// one as its constructor argument.
//
// Sources, lowest precedence first:
//
//   default       every instrument off, collectors idle;
//   environment   Config::from_env(), the only place the library reads the
//                 environment — it is also the default value of every
//                 options struct's Config, so SIMCOV_KERNEL_CHECK=1 reaches
//                 every Device a program builds with default options;
//   CLI           apply_flag() / apply_key() overlay simcov's --flags and
//                 driver config keys on the parsed environment.
//
// A Config built explicitly (`obs::Config{}`, designated initializers)
// ignores the environment: `opts.obs = obs::Config{}` means "all off".
//
// One rule parses every value, whichever surface it came from: switches
// take 0 or 1 (the kernel check also takes permute), counts take a
// non-negative decimal integer, paths take any string.  An empty
// environment value counts as unset.  Anything else throws simcov::Error
// naming the variable, flag or key.
//
//   env var               CLI flag         config key     field
//   SIMCOV_KERNEL_CHECK   -                kernel_check   kernel_check, permute
//   SIMCOV_PGAS_CHECK     -                -              pgas_check
//   SIMCOV_PROFILE        --profile=       profile        profile
//   SIMCOV_MEMSCOPE       --memscope=      memscope       memscope
//   SIMCOV_CRITPATH       --critpath=      critpath       critpath
//   SIMCOV_TRACE          --trace=         -              trace_path
//   SIMCOV_TRACE_RING     --trace-ring=    -              trace_ring
//   SIMCOV_METRICS        --metrics-out=   -              metrics_path
//   SIMCOV_SERIES_CAP     --series-cap=    -              series_cap
//   SIMCOV_BENCH_DIR      -                -              bench_dir

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace simcov::obs {

/// Default per-series retention cap of the metrics registry (samples per
/// (name, rank) series).
inline constexpr std::size_t kDefaultSeriesCap = 4096;

struct Config {
  // ---- instrument switches ---------------------------------------------
  bool kernel_check = false;  ///< KernelCheck (gpusim/check.hpp)
  bool permute = false;       ///< KernelCheck schedule permutation
  bool profile = false;       ///< KernelProf (obs/profile.hpp)
  bool memscope = false;      ///< MemScope (obs/memscope.hpp)
  bool critpath = false;      ///< CritPath (obs/critpath.hpp)
  bool pgas_check = false;    ///< PGAS discipline checker (pgas/checker.hpp)

  // ---- collectors ------------------------------------------------------
  std::string trace_path{};    ///< Chrome trace output; empty = no trace file
  std::string metrics_path{};  ///< metrics snapshot output; empty = none
  std::size_t trace_ring = 0;  ///< span ring capacity; 0 = Tracer default
  std::size_t series_cap = kDefaultSeriesCap;  ///< 0 = unlimited
  std::string bench_dir = ".";  ///< directory of BENCH_<name>.json reports

  /// Value of an environment variable, or nullptr when it is unset.
  using EnvLookup = std::function<const char*(const char*)>;

  /// Parses every SIMCOV_* variable over the defaults.  `lookup` defaults
  /// to the process environment.  Throws simcov::Error on a malformed value.
  static Config from_env(const EnvLookup& lookup = {});

  /// Overlays one `--flag=value` argument.  Returns false, changing
  /// nothing, when `arg` is not one of the flags above.
  bool apply_flag(std::string_view arg);

  /// Overlays one driver config key.  Returns false, changing nothing,
  /// when `key` is not one of the keys above.
  bool apply_key(std::string_view key, std::string_view value);
};

}  // namespace simcov::obs
