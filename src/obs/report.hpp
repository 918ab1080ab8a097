#pragma once
// Machine-readable benchmark reports: BENCH_<name>.json.
//
// Every bench binary historically printed a human table and exited — the
// numbers evaporated, so no PR could prove it made a hot path faster (or be
// caught making one slower).  A BenchConfig is the one record of a run:
// harness::run_report builds it from the run's result, obs::print_summary
// (obs/summary.hpp) prints the end-of-run tables from it, and BenchReport
// writes it as one config of the JSON.  Per run it holds the *measured*
// wall seconds and per-phase breakdown (from the PhaseClock counters in
// obs::Metrics), the *modeled* seconds and per-phase costs (from
// perfmodel::RunCost), the divergence between the two (the drift report
// that makes the Fig. 6-8 extrapolations falsifiable), and the
// communication counters including the per-(src,dst)-rank matrix.
// tools/check_bench.py validates the schema and gates regressions against
// bench/baselines/.
//
// Schema (version "simcov-bench/1"):
//   {
//     "schema": "simcov-bench/1",
//     "bench": "<name>",
//     "experiment" | "paper_config" | "our_config": strings,
//     "machine": {"host", "compiler", "build", "hardware_threads"},
//     "configs": [ {
//        "label", "backend", "ranks", "params": {..},
//        "measured_wall_s", "modeled_s",
//        "measured_by_phase_s": {phase: s}, "modeled_by_phase_s": {phase: s},
//        "drift": [ {"phase", "measured_s", "measured_share",
//                    "modeled_s", "modeled_share", "divergence"} ],
//        "kernels": [ {"phase", "kernel", "launches", "measured_s",
//                      "measured_share", "modeled_s", "modeled_share",
//                      "divergence", "bytes", "achieved_gbps",
//                      "arithmetic_intensity", "roofline_util",
//                      "buffers": {name: {"read_bytes","write_bytes",
//                                         "atomic_ops"}} } ],
//            (present only for profiled GPU runs; shares are of the
//             enclosing phase, so each phase's rows — including its
//             "<host>" remainder — decompose that phase's drift row)
//        "memory": { "registry_peak_bytes", "registry_live_bytes",
//                    "peak_live_bytes", "device_peak_bytes",
//                    "alloc_events", "free_events", "underflows",
//                    "categories": {category: peak_bytes},
//                    "buffers": [ {"name", "category", "peak_bytes",
//                                  "live_bytes", "allocs", "frees"} ],
//                    "drift": [ {"category", "measured_bytes",
//                                "measured_share", "modeled_bytes",
//                                "modeled_share", "divergence"} ],
//                    "vm_rss_kb", "vm_hwm_kb", "rss_samples" },
//            (present only for memscope runs; sum(categories) ==
//             sum(buffer peaks) == registry_peak_bytes exactly, the
//             invariant tools/check_bench.py enforces; vm_* fields are
//             machine-dependent and stripped from baselines)
//        "criticalpath": { "steps", "ranks", "critical_s", "mean_rank_s",
//                    "imbalance_factor", "binding_switches", "churn",
//                    "wait_s",
//                    "phases": [ {"phase", "critical_s", "critical_share",
//                                 "attributed_wait_s", "mean_s", "max_s"} ],
//                    "ranks_bound": [ {"rank", "steps_bound", "share"} ],
//                    "whatif": [ {"name", "phase", "factor",
//                                 "projected_s", "speedup",
//                                 "improvement"} ] },
//            (present only for critpath runs; phase critical_share sums to
//             1, ranks_bound steps_bound sums to steps, churn ==
//             binding_switches/(steps-1) — the arithmetic identities
//             tools/check_bench.py enforces; the whole section is stripped
//             from baselines like "kernels")
//        "comm": { aggregate counters ...,
//                  "matrix": [ {"src","dst","puts","put_bytes",
//                               "rpcs","rpc_bytes"} ],
//                  "matrix_pairs", "matrix_max_put_bytes" } } ],
//     "shape_checks": [ {"claim", "ok"} ],
//     "metrics": {name: value}
//   }
// No timestamps anywhere: for deterministic inputs everything except the
// measured_* fields and the machine fingerprint is bit-stable across runs.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/memscope.hpp"
#include "obs/profile.hpp"
#include "pgas/comm_stats.hpp"
#include "perfmodel/cost_model.hpp"

namespace simcov::obs {

/// One phase's measured-vs-modeled comparison.  Shares are fractions of the
/// respective totals; divergence = measured_share - modeled_share, so a
/// positive value means the phase costs more of the real step time than the
/// cost model predicts.
struct DriftRow {
  std::string phase;
  double measured_s = 0.0;
  double measured_share = 0.0;
  double modeled_s = 0.0;
  double modeled_share = 0.0;
  double divergence = 0.0;
};

/// One (src,dst) cell of the communication matrix.
struct CommEdge {
  int src = 0;
  int dst = 0;
  pgas::PeerStats traffic;
};

/// Where BenchReport builds its machine fingerprint from.
struct MachineFingerprint {
  std::string host;
  std::string compiler;
  std::string build;  ///< "release" / "debug" (NDEBUG)
  unsigned hardware_threads = 0;

  static MachineFingerprint current();
};

/// One run's record: one benchmarked configuration of a bench binary, or
/// the simcov driver's run.  harness::run_report fills everything but
/// label, backend and ranks.
struct BenchConfig {
  std::string label;
  std::string backend;  ///< "cpu" | "gpu" | "reference"
  int ranks = 0;
  /// Flat numeric parameters (dim_x, num_steps, seed, area_scale, ...).
  std::map<std::string, double> params;
  double measured_wall_s = 0.0;
  double modeled_s = 0.0;
  std::map<std::string, double> measured_by_phase_s;
  std::map<std::string, double> modeled_by_phase_s;
  std::vector<DriftRow> drift;
  /// Per-kernel roofline drift rows (obs::kernel_drift_rows; profiled GPU
  /// runs only, empty otherwise).
  std::vector<KernelDriftRow> kernels;
  /// MemScope per-buffer report merged over ranks (memscope runs only;
  /// empty otherwise — an empty report suppresses the "memory" section).
  MemReport memory;
  /// Memory drift rows (obs::memory_drift_rows over the measured category
  /// peaks and the mem_model prediction).
  std::vector<MemDriftRow> mem_drift;
  /// Device allocator watermark summed over devices (tracked even with
  /// MemScope off; zero for CPU/reference configs).
  std::uint64_t device_peak_bytes = 0;
  /// OS-side reconciliation: last RSS sample and how many samples the
  /// phase-boundary sampler took during this config's run.
  RssSample rss;
  std::uint64_t rss_samples = 0;
  /// CritPath report (obs::build_critpath_report plus the step-loop wall
  /// and tail; critpath runs only, empty() suppresses the "criticalpath"
  /// section).
  CritPathReport criticalpath;
  pgas::CommStats comm_total;       ///< summed over ranks (peers merged)
  std::vector<CommEdge> comm_matrix;  ///< sorted by (src,dst)
};

struct ShapeCheck {
  std::string claim;
  bool ok = false;
};

/// Builder for one BENCH_<name>.json.  Collect configs / shape checks /
/// scalar metrics, then write().  The output directory is $SIMCOV_BENCH_DIR
/// when set, else the current working directory (CI runs benches from the
/// repo root so reports land where the baselines expect them).
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void set_context(std::string experiment, std::string paper_config,
                   std::string our_config);

  BenchConfig& add_config(BenchConfig cfg);
  void add_shape_check(const std::string& claim, bool ok);
  void add_metric(const std::string& name, double value);

  const std::string& name() const { return name_; }
  const std::vector<BenchConfig>& configs() const { return configs_; }
  const std::vector<ShapeCheck>& shape_checks() const { return shape_checks_; }

  std::string to_json() const;
  /// Resolved output path: <SIMCOV_BENCH_DIR or .>/BENCH_<name>.json.
  std::string path() const;
  /// Writes to path(); throws simcov::Error on I/O failure.
  void write() const;

  /// Prints the aggregate measured-vs-modeled drift table (one record
  /// summed over all recorded configs, labelled "all configs") to `out`.
  /// No-op when nothing was measured.
  void print_drift_summary(std::FILE* out) const;

  // ---- builders for the pieces harness::run_report assembles -------------

  /// Per-phase drift of measured against modeled seconds (phase name ->
  /// seconds, as measured_phases_from / modeled_phases_from build them),
  /// in canonical phase order.  Phases with neither measured nor modeled
  /// time are omitted.
  static std::vector<DriftRow> drift_from(
      const std::map<std::string, double>& measured_by_phase_s,
      const std::map<std::string, double>& modeled_by_phase_s);

  /// Measured per-phase seconds (summed over ranks) from the PhaseClock
  /// counters.
  static std::map<std::string, double> measured_phases_from(
      const std::map<std::string, std::map<int, double>>& counters);

  /// Modeled per-phase seconds from a RunCost (zero phases omitted).
  static std::map<std::string, double> modeled_phases_from(
      const perfmodel::RunCost& cost);

  /// Flattens per-rank CommStats into sorted (src,dst) matrix edges.
  static std::vector<CommEdge> matrix_from(
      const std::vector<pgas::CommStats>& by_rank);

 private:
  std::string name_;
  std::string experiment_;
  std::string paper_config_;
  std::string our_config_;
  MachineFingerprint machine_;
  std::vector<BenchConfig> configs_;
  std::vector<ShapeCheck> shape_checks_;
  std::map<std::string, double> metrics_;
};

}  // namespace simcov::obs
