// simcov — command-line driver for the SIMCoV-GPU reproduction.
//
// Runs a full simulation on any engine, with config-file + command-line
// parameterization, optional airway structure and CT-lesion seeding, CSV /
// PPM / checkpoint output, and checkpoint resume (reference engine).
//
// Usage:
//   simcov [--config FILE] [--trace=FILE] [--metrics-out=FILE] [--profile=1]
//          [--memscope=1] [key=value ...]
//
// Observability flags (see src/obs and the README "Observability" section).
// Flags, the driver keys kernel_check/profile/memscope/critpath and the
// SIMCOV_* environment all parse into one obs::Config (obs/config.hpp):
// a flag beats a key, which beats the environment, which beats the default.
//   --trace=FILE        write a Chrome-trace-event JSON (Perfetto /
//                       chrome://tracing) with one track per PGAS rank and a
//                       span per simulation phase.  Equivalent to setting
//                       SIMCOV_TRACE=FILE in the environment.
//   --metrics-out=FILE  write the runtime metrics snapshot (JSON, or CSV when
//                       FILE ends in .csv): per-step halo bytes, barrier wait,
//                       active-tile occupancy, RPC histograms, ...  Equivalent
//                       to SIMCOV_METRICS=FILE.  Also prints the measured
//                       per-phase wall-clock breakdown to stderr.
//   --trace-ring=N      span ring-buffer capacity (0 = default 262144).  When
//                       the ring saturates the oldest spans are overwritten
//                       and a warning is printed at export time.  Equivalent to
//                       SIMCOV_TRACE_RING=N.
//   --series-cap=N      per-series retention cap for --metrics-out step
//                       series (default 4096; 0 = unlimited).  Over the cap a
//                       series is deterministically downsampled 2x (every
//                       other retained point dropped, stride doubled) with a
//                       one-time stderr warning.  Equivalent to
//                       SIMCOV_SERIES_CAP=N.
//   --summary=LIST      end-of-run report sections, a comma-separated subset
//                       of phases,drift,kernels,memory,critpath (or all /
//                       none; default all).  Sections print only when their
//                       collector ran: phases+drift need --metrics-out,
//                       kernels needs profile=1, memory needs memscope=1,
//                       critpath needs critpath=1.
// Both paths are validated before the run starts; an unwritable path is a
// hard error up front, not after the simulation has finished.
//
// Driver keys (everything else is a SimParams key, see core/params.hpp):
//   engine        reference | cpu | gpu          (default reference)
//   ranks         rank count for parallel engines (default 4)
//   variant       combined | tiling | fastred | unoptimized  (gpu only)
//   kernel_check  0 | 1 | permute               (gpu only) KernelCheck race
//                 analyzer; permute also re-runs every launch under permuted
//                 thread schedules (same as SIMCOV_KERNEL_CHECK)
//   profile       0 | 1                          (gpu only) KernelProf
//                 per-launch roofline profiler: prints the per-kernel
//                 measured/modeled/bandwidth table after the run (same as
//                 SIMCOV_PROFILE=1; --profile=1 is accepted as an alias)
//   memscope      0 | 1                          (cpu|gpu) MemScope per-buffer
//                 memory registry: prints the per-buffer memory report,
//                 category drift vs the memory model, and the OS RSS
//                 reconciliation after the run (same as SIMCOV_MEMSCOPE=1;
//                 --memscope=1 is accepted as an alias).  Digests are
//                 bit-identical with it on or off.
//   critpath      0 | 1                          (cpu|gpu) CritPath per-step
//                 binding-rank analysis: prints the critical-path report
//                 (per-phase critical shares, binding-rank table, what-if
//                 speedup projections) after the run (same as
//                 SIMCOV_CRITPATH=1; --critpath=1 is accepted as an alias).
//                 Digests are bit-identical with it on or off.
//   foi_mode      random | lattice | ct          (default random)
//   lesions       CT lesion count                (foi_mode=ct)
//   lesion_radius mean CT lesion radius          (foi_mode=ct)
//   airways       true to overlay a bronchial tree of empty voxels
//   airway_generations  tree depth               (default 5)
//   series_csv    path for the per-step statistics CSV
//   frames        number of PPM frames (reference engine only)
//   frame_prefix  path prefix for frames         (default "simcov")
//   checkpoint    path to write a final checkpoint (reference engine only)
//   resume        path to a checkpoint to resume from (reference engine)
//   steps_after_resume  extra steps when resuming (default num_steps)

#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/airways.hpp"
#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/reference_sim.hpp"
#include "harness/experiment.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace simcov;

const char* const kDriverKeys[] = {
    "engine",      "ranks",         "variant",     "foi_mode",
    "lesions",     "lesion_radius", "airways",     "airway_generations",
    "series_csv",  "frames",        "frame_prefix", "checkpoint",
    "resume",      "steps_after_resume", "kernel_check", "profile",
    "memscope",    "critpath"};

bool is_driver_key(const std::string& k) {
  for (const char* d : kDriverKeys) {
    if (k == d) return true;
  }
  return false;
}

gpu::GpuVariant parse_variant(const std::string& name) {
  if (name == "combined") return gpu::GpuVariant::combined();
  if (name == "tiling") return gpu::GpuVariant::memory_tiling_only();
  if (name == "fastred") return gpu::GpuVariant::fast_reduction_only();
  if (name == "unoptimized") return gpu::GpuVariant::unoptimized();
  throw Error("unknown variant '" + name +
              "' (combined|tiling|fastred|unoptimized)");
}

void print_summary(const TimeSeries& history) {
  if (history.empty()) return;
  const auto virus = series_virus(history);
  const auto tcells = series_tcells(history);
  const StepStats& last = history.back();
  TextTable t({"metric", "value"});
  t.add_row({"steps", std::to_string(history.size())});
  t.add_row({"peak virus", fmt(peak(virus), 1)});
  t.add_row({"final virus", fmt(last.virus_total, 1)});
  t.add_row({"peak tissue T cells", fmt(peak(tcells), 0)});
  t.add_row({"final dead epithelial cells", std::to_string(last.dead())});
  std::printf("%s", t.to_string().c_str());
}

int run(const Config& cfg, const obs::Config& obs_cfg, unsigned summary_mask) {
  // Split driver keys from simulation parameters.
  Config sim_cfg;
  for (const auto& k : cfg.keys()) {
    if (!is_driver_key(k)) sim_cfg.set(k, cfg.get_string(k));
  }

  const std::string engine = cfg.get_string("engine", "reference");

  // ---- resume path (reference engine only) -------------------------------
  if (cfg.has("resume")) {
    SIMCOV_REQUIRE(engine == "reference",
                   "checkpoint resume is supported by the reference engine");
    ReferenceSim sim = io::load_checkpoint(cfg.get_string("resume"));
    const long long extra = cfg.get_int("steps_after_resume",
                                        sim.params().num_steps);
    std::printf("resumed at step %llu; running %lld more steps\n",
                static_cast<unsigned long long>(sim.current_step()), extra);
    sim.run(extra);
    if (cfg.has("series_csv")) {
      io::write_series_csv(cfg.get_string("series_csv"), sim.history());
    }
    if (cfg.has("checkpoint")) {
      io::save_checkpoint(cfg.get_string("checkpoint"), sim);
    }
    print_summary(sim.history());
    return 0;
  }

  SimParams params = SimParams::covid_default();
  params.apply(sim_cfg);
  params.validate();
  const Grid grid(params.dim_x, params.dim_y, params.dim_z);

  // ---- structure & seeding -------------------------------------------------
  std::vector<VoxelId> empties;
  if (cfg.get_bool("airways", false)) {
    AirwayParams ap;
    ap.generations = static_cast<int>(cfg.get_int("airway_generations", 5));
    ap.seed = params.seed;
    empties = airway_voxels(grid, ap);
    std::printf("airway structure: %zu empty voxels\n", empties.size());
  }

  std::vector<VoxelId> foi;
  const std::string foi_mode = cfg.get_string("foi_mode", "random");
  if (foi_mode == "random") {
    foi = foi_uniform_random(grid, params.num_foi, params.seed);
  } else if (foi_mode == "lattice") {
    foi = foi_lattice(grid, params.num_foi);
  } else if (foi_mode == "ct") {
    foi = foi_ct_lesions(grid, cfg.get_int("lesions", 12),
                         cfg.get_double("lesion_radius", 4.0), params.seed);
  } else {
    throw Error("unknown foi_mode '" + foi_mode + "' (random|lattice|ct)");
  }
  // Never seed inside an airway lumen.
  if (!empties.empty()) {
    std::vector<VoxelId> filtered;
    for (VoxelId v : foi) {
      if (!std::binary_search(empties.begin(), empties.end(), v)) {
        filtered.push_back(v);
      }
    }
    foi.swap(filtered);
  }
  std::printf("engine=%s  %s  (%zu FOI voxels)\n", engine.c_str(),
              params.summary().c_str(), foi.size());

  // ---- run ---------------------------------------------------------------------
  if (engine == "reference") {
    ReferenceSim sim(params, foi, empties);
    const long long frames = cfg.get_int("frames", 0);
    const std::string prefix = cfg.get_string("frame_prefix", "simcov");
    const long long frame_every =
        frames > 0 ? std::max<long long>(1, params.num_steps / frames) : 0;
    int frame_no = 0;
    for (long long s = 0; s < params.num_steps; ++s) {
      sim.step();
      if (frames > 0 && (s + 1) % frame_every == 0 && frame_no < frames) {
        io::write_ppm(prefix + "_frame" + std::to_string(frame_no++) + ".ppm",
                      io::render_state(sim));
      }
    }
    if (cfg.has("series_csv")) {
      io::write_series_csv(cfg.get_string("series_csv"), sim.history());
    }
    if (cfg.has("checkpoint")) {
      io::save_checkpoint(cfg.get_string("checkpoint"), sim);
      std::printf("checkpoint written to %s\n",
                  cfg.get_string("checkpoint").c_str());
    }
    print_summary(sim.history());
    return 0;
  }

  harness::RunSpec spec;
  spec.params = params;
  spec.foi = foi;
  spec.empty_voxels = empties;
  spec.obs = obs_cfg;
  const int ranks = static_cast<int>(cfg.get_int("ranks", 4));
  harness::BackendResult result;
  if (engine == "cpu") {
    result = harness::run_cpu(spec, ranks);
  } else if (engine == "gpu") {
    result = harness::run_gpu(
        spec, ranks, parse_variant(cfg.get_string("variant", "combined")));
  } else {
    throw Error("unknown engine '" + engine + "' (reference|cpu|gpu)");
  }
  if (cfg.has("series_csv")) {
    io::write_series_csv(cfg.get_string("series_csv"), result.history);
  }
  print_summary(result.history);
  std::printf("modeled runtime: %.3f s (update %.3f, reduce %.3f)\n",
              result.cost.total_s, result.cost.update_agents_s(),
              result.cost.reduce_stats_s());

  // End-of-run report sections (drift / kernels / memory / critpath) print
  // from the run's one record, gated by --summary=.  The phases section
  // prints from finish_observability (stderr), so it is masked out here.
  // Without --metrics-out the record has no measured side and the drift
  // table is omitted rather than printing an all-n/a column.
  obs::print_summary(stdout,
                     harness::run_report(spec, result,
                                         obs::metrics().counters()),
                     summary_mask & ~unsigned{obs::kSummaryPhases});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Observability flags come out of argv first: they are process-level
    // (not simulation parameters) and must be validated before anything
    // expensive runs.  Precedence: CLI flag > driver config key >
    // environment > default.
    obs::Config obs_cfg = obs::Config::from_env();
    std::vector<std::string> obs_flags;
    unsigned summary_mask = obs::kSummaryAll;
    std::vector<char*> rest;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--summary=", 0) == 0) {
        summary_mask = obs::parse_summary_selector(a.substr(10));
      } else if (a.rfind("--", 0) == 0 && a.find('=') != std::string::npos) {
        obs_flags.push_back(a);
      } else {
        rest.push_back(argv[i]);
      }
    }

    Config cfg;
    std::size_t first_kv = 0;
    if (rest.size() >= 2 && std::string(rest[0]) == "--config") {
      cfg = Config::from_file(rest[1]);
      first_kv = 2;
    }
    cfg.merge(Config::from_args(static_cast<int>(rest.size() - first_kv),
                                rest.data() + first_kv));
    for (const std::string& k : cfg.keys()) {
      obs_cfg.apply_key(k, cfg.get_string(k));
    }
    for (const std::string& f : obs_flags) {
      if (!obs_cfg.apply_flag(f)) throw Error("unknown flag '" + f + "'");
    }
    harness::configure_observability(obs_cfg);

    const int rc = run(cfg, obs_cfg, summary_mask);
    harness::finish_observability(summary_mask);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
