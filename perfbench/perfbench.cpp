// perfbench: the measuring half of the repository benchmark (run.py is the
// checking and reporting half).
//
//   perfbench inputs    --workload W --seed N
//   perfbench reference --workload W --seed N
//   perfbench run       --workload W --seed N --seconds S --trace 0|1
//                       [--trace-out PATH]
//
// Each mode prints one JSON object on stdout.  The program measures and
// reports raw observations (per-job walls, CPU times, histories, exact
// counters, microbench timings); run.py checks them against the serial
// reference and turns them into the benchmark's metrics.
//
// The program drives the layers from outside only, through their public
// entry points: gpu::run_gpu_sim, cpu::run_cpu_sim, ReferenceSim,
// pgas::Runtime/Rank, gpusim::Device and core/stencil.hpp.  It reads the
// counters those already return and adds no instrumentation to them.
//
// Load shape: one simulation job at a time in a closed loop, on one
// process; the rank threads run while the driver thread blocks in the
// simulate call.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/airways.hpp"
#include "core/decomposition.hpp"
#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/reference_sim.hpp"
#include "core/stencil.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/cost_model.hpp"
#include "pgas/runtime.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace simcov;

// ---- workloads ---------------------------------------------------------------

enum class Engine { kGpu, kCpu };

const char* engine_name(Engine e) { return e == Engine::kGpu ? "gpu" : "cpu"; }

struct Workload {
  const char* name;
  Engine engine;
  int ranks;
  std::int32_t dim;
  std::int64_t steps;
};

// Step counts put every job well past step 120, where T cells first arrive
// (bench_fast's tcell_initial_delay).  Why each workload exists is recorded
// in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"gpu_halo", Engine::kGpu, 4, 256, 300},
    {"gpu_dense", Engine::kGpu, 1, 256, 150},
    {"cpu_lung", Engine::kCpu, 4, 1024, 300},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

struct Inputs {
  SimParams params;
  std::vector<VoxelId> foi;
  std::vector<VoxelId> empty_voxels;
};

/// Places FOI into every block of a `cells`-way 2D block decomposition:
/// `place(cell_grid, cell_seed)` draws one block's FOI in block coordinates,
/// and a draw whose global voxels `accept` refuses is redrawn with the next
/// seed.  A new seed moves the FOI but leaves each rank's share of them, and
/// with it the load balance, alone: with fully random placement the
/// seed-to-seed spread of the work (and of modeled_s) was 10-25%.
template <typename Place, typename Accept>
std::vector<VoxelId> stratified(const Grid& grid, int cells, std::uint64_t seed,
                                Place&& place, Accept&& accept) {
  const Decomposition dec(grid, cells, Decomposition::Kind::kBlock2D);
  std::vector<VoxelId> out;
  for (int r = 0; r < cells; ++r) {
    const Subdomain sub = dec.sub(r);
    const Grid local(sub.extent.x, sub.extent.y, sub.extent.z);
    for (std::uint64_t draw = 0;; ++draw) {
      std::vector<VoxelId> block;
      for (VoxelId v : place(local, (seed * 8191 + r) * 64 + draw)) {
        const Coord c = local.to_coord(v);
        block.push_back(grid.to_id(
            {c.x + sub.origin.x, c.y + sub.origin.y, c.z + sub.origin.z}));
      }
      if (accept(block)) {
        out.insert(out.end(), block.begin(), block.end());
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every input is a function of (workload, seed): FOI placement, the airway
/// tree and the simulation RNG seed.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  SimParams& p = in.params;
  p = SimParams::bench_fast();
  p.dim_x = w.dim;
  p.dim_y = w.dim;
  p.num_steps = w.steps;
  p.seed = seed;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const std::string name = w.name;
  auto any = [](const std::vector<VoxelId>&) { return true; };
  auto uniform = [](std::int64_t n) {
    return [n](const Grid& g, std::uint64_t s) {
      return foi_uniform_random(g, n, s);
    };
  };
  if (name == "gpu_halo") {
    // 16 uniform-random FOI, four per rank tile.
    in.foi = stratified(grid, w.ranks, seed, uniform(16 / w.ranks), any);
  } else if (name == "gpu_dense") {
    // A jittered 8x8 lattice: one uniform-random FOI per lattice cell.
    in.foi = stratified(grid, 64, seed, uniform(1), any);
  } else {
    AirwayParams ap;
    ap.generations = 5;
    ap.seed = seed;
    in.empty_voxels = airway_voxels(grid, ap);
    // 16 CT lesions, one per cell of a jittered 4x4 lattice, so four per
    // rank quadrant.  Each is a radius-2 disc (13 voxels) clear of the
    // airway lumens: a draw whose Poisson radius is not 2, or which touches
    // an airway, is redrawn.  With the radii as drawn, the seed-to-seed
    // spread of the infected area, and of modeled_s, was about 15%.
    constexpr std::size_t kLesionVoxels = 13;
    in.foi = stratified(
        grid, 16, seed,
        [](const Grid& g, std::uint64_t s) { return foi_ct_lesions(g, 1, 2.0, s); },
        [&](const std::vector<VoxelId>& lesion) {
          return lesion.size() == kLesionVoxels &&
                 std::none_of(lesion.begin(), lesion.end(), [&](VoxelId v) {
                   return std::binary_search(in.empty_voxels.begin(),
                                             in.empty_voxels.end(), v);
                 });
        });
  }
  p.num_foi = static_cast<std::int64_t>(in.foi.size());
  p.validate();
  return in;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of everything the simulation receives: every SimParams field,
/// the FOI and the airway voxels.  The reference cache is keyed by it.
std::uint64_t inputs_digest(const Inputs& in) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const auto& field) { h = fnv1a(h, &field, sizeof field); };
  const SimParams& p = in.params;
  mix(p.dim_x), mix(p.dim_y), mix(p.dim_z), mix(p.num_steps), mix(p.seed);
  mix(p.num_foi), mix(p.initial_virus);
  mix(p.virus_diffusion), mix(p.virus_decay), mix(p.virus_production);
  mix(p.min_virus), mix(p.infectivity);
  mix(p.chem_diffusion), mix(p.chem_decay), mix(p.chem_production);
  mix(p.min_chem);
  mix(p.incubation_period), mix(p.expressing_period), mix(p.apoptosis_period);
  mix(p.tcell_generation_rate), mix(p.tcell_initial_delay);
  mix(p.tcell_vascular_period), mix(p.tcell_tissue_period);
  mix(p.tcell_binding_period), mix(p.max_extravasate_per_step);
  mix(p.tile_side), mix(p.tile_check_period), mix(p.block_dim);
  h = fnv1a(h, in.foi.data(), in.foi.size() * sizeof(VoxelId));
  h = fnv1a(h, in.empty_voxels.data(),
            in.empty_voxels.size() * sizeof(VoxelId));
  return h;
}

// ---- clocks ------------------------------------------------------------------

double wall_now() { return static_cast<double>(obs::now_ns()) / 1e9; }

/// CPU time of the whole process (all rank threads), seconds.
double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident memory (VmHWM) less the resident file-backed pages
/// (RssFile: program text and libraries).  How much of the executable is
/// resident depends on the page cache, not on the run: counted in, it moved
/// the peak by 3.6 MB between runs of identical work.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  double hwm_kb = 0, file_kb = 0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = std::stod(line.substr(6));
    if (line.rfind("RssFile:", 0) == 0) file_kb = std::stod(line.substr(8));
  }
  if (hwm_kb <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return (hwm_kb - file_kb) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The benchmark's own spans, around each call into a layer.  Kept apart
/// from the program's tracer (which is only enabled for the traced job) and
/// merged with its events when the trace is written.
struct Span {
  std::string name;
  obs::Nanos start, end;
};
std::vector<Span> g_spans;

template <typename F>
auto spanned(const std::string& name, F&& fn) {
  const obs::Nanos t0 = obs::now_ns();
  struct Close {
    const std::string& n;
    obs::Nanos t0;
    ~Close() { g_spans.push_back({n, t0, obs::now_ns()}); }
  } close{name, t0};
  return fn();
}

// ---- JSON output -------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string history_json(const TimeSeries& h) {
  std::string out = "[";
  for (std::size_t i = 0; i < h.size(); ++i) {
    const StepStats& s = h[i];
    if (i) out += ",";
    out += "[" + num(s.virus_total) + "," + num(s.chem_total);
    for (std::uint64_t c : s.epi_counts) out += "," + num(c);
    out += "," + num(s.tcells_tissue) + "," + num(s.extravasated) + "," +
           num(s.tcells_vascular) + "]";
  }
  return out + "]";
}

// ---- simulation jobs ---------------------------------------------------------

/// What a job is for.  kCheck doubles as the warm-up: it records per-step
/// full-state digests (one extra allreduce per step, so its counts are not
/// compared).  kTraced runs with the in-memory tracer and metrics on;
/// kCompanion runs the other engine, with metrics on, on the same inputs.
enum class Kind { kCheck, kTimed, kTraced, kCompanion };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCheck: return "check";
    case Kind::kTimed: return "timed";
    case Kind::kTraced: return "traced";
    case Kind::kCompanion: return "companion";
  }
  return "?";
}

struct Job {
  Kind kind;
  Engine engine;
  double wall_s = 0, cpu_s = 0, loop_s = 0, inputs_s = 0, modeled_s = 0;
  pgas::CommStats comm;        ///< summed over ranks
  gpusim::DeviceStats device;  ///< summed over devices (zero on cpu)
  TimeSeries history;
  std::vector<std::uint64_t> digests;      ///< kCheck only
  std::map<std::string, double> phase_ms;  ///< kTraced/kCompanion only
};

const char* const kGpuPhases[] = {"t_cells", "epithelial", "concentrations",
                                  "halo", "tile_sweep", "reduce_stats"};
const char* const kCpuPhases[] = {"t_cells", "epithelial", "concentrations",
                                  "halo", "reduce_stats"};

/// Copies what both backends' results report into the job.
template <typename Result>
void harvest(Job& job, Result& r) {
  job.loop_s = r.step_loop_wall_s;
  job.modeled_s = r.cost.total_s;
  for (const auto& c : r.comm_by_rank) job.comm += c;
  job.history = std::move(r.history);
  job.digests = std::move(r.digests);
}

/// One simulation job: input generation plus one simulate call, timed by
/// host wall and process CPU time.  Observed jobs read the per-phase wall
/// counters back as ms per step, max over ranks.
Job run_job(const Workload& w, Engine engine, std::uint64_t seed, Kind kind) {
  Job job;
  job.kind = kind;
  job.engine = engine;
  const double t_in = wall_now();
  const Inputs in =
      spanned("inputs", [&] { return make_inputs(w, seed); });
  job.inputs_s = wall_now() - t_in;

  const bool observe = kind == Kind::kTraced || kind == Kind::kCompanion;
  if (observe) obs::metrics().enable();
  if (kind == Kind::kTraced) obs::tracer().enable("", std::size_t{1} << 19);
  const double c0 = process_cpu_now();
  const double t0 = wall_now();
  const std::string span = std::string("simulate.") + engine_name(engine);
  if (engine == Engine::kGpu) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = w.ranks;
    opt.record_digests = kind == Kind::kCheck;
    gpu::GpuRunResult r = spanned(span, [&] {
      return gpu::run_gpu_sim(in.params, in.foi, opt, in.empty_voxels);
    });
    job.wall_s = wall_now() - t0;
    job.device = r.device_total;
    harvest(job, r);
  } else {
    cpu::CpuSimOptions opt;
    opt.num_ranks = w.ranks;
    opt.record_digests = kind == Kind::kCheck;
    cpu::CpuRunResult r = spanned(span, [&] {
      return cpu::run_cpu_sim(in.params, in.foi, opt, in.empty_voxels);
    });
    job.wall_s = wall_now() - t0;
    harvest(job, r);
  }
  job.cpu_s = process_cpu_now() - c0;

  if (observe) {
    const auto counters = obs::metrics().counters();
    auto add_phase = [&](const char* p) {
      double worst = 0.0;
      const auto it = counters.find(std::string("phase.") + p + ".wall_ns");
      if (it != counters.end()) {
        for (const auto& [rank, ns] : it->second) worst = std::max(worst, ns);
      }
      job.phase_ms[p] = worst / 1e6 / static_cast<double>(w.steps);
    };
    if (engine == Engine::kGpu) {
      for (const char* p : kGpuPhases) add_phase(p);
    } else {
      for (const char* p : kCpuPhases) add_phase(p);
    }
    obs::metrics().disable();
  }
  return job;
}

std::string digests_json(const std::vector<std::uint64_t>& d) {
  std::string out = "[";
  for (std::size_t i = 0; i < d.size(); ++i) {
    out += (i ? "," : "") + num(d[i]);
  }
  return out + "]";
}

std::string job_json(const Job& j) {
  const pgas::CommStats& c = j.comm;
  const gpusim::DeviceStats& d = j.device;
  std::string out = "{\"kind\":" + quoted(kind_name(j.kind)) +
                    ",\"engine\":" + quoted(engine_name(j.engine)) +
                    ",\"wall_s\":" + num(j.wall_s) + ",\"cpu_s\":" +
                    num(j.cpu_s) + ",\"loop_s\":" + num(j.loop_s) +
                    ",\"inputs_s\":" + num(j.inputs_s) + ",\"modeled_s\":" +
                    num(j.modeled_s) +
                    ",\"barrier_wait_ns\":" + num(c.barrier_wait_ns);
  out += ",\"counts\":{\"barriers\":" + num(c.barriers) +
         ",\"puts\":" + num(c.puts) + ",\"put_bytes\":" + num(c.put_bytes) +
         ",\"rpcs\":" + num(c.rpcs_sent) + ",\"reductions\":" +
         num(c.reductions) + ",\"launches\":" + num(d.kernel_launches) +
         ",\"threads\":" + num(d.threads_executed) + ",\"atomics\":" +
         num(d.atomic_ops) + ",\"global_bytes\":" +
         num(d.global_read_bytes + d.global_write_bytes) + "}";
  if (!j.phase_ms.empty()) {
    out += ",\"phase_ms\":{";
    bool first = true;
    for (const auto& [p, ms] : j.phase_ms) {
      out += (first ? "" : ",") + quoted(p) + ":" + num(ms);
      first = false;
    }
    out += "}";
  }
  if (!j.digests.empty()) out += ",\"digests\":" + digests_json(j.digests);
  return out + ",\"history\":" + history_json(j.history) + "}";
}

// ---- layer microbenches --------------------------------------------------------
//
// Each runs a warm-up pass, then kReps timed passes of a fixed operation
// count, and reports the median ns per operation.

constexpr int kReps = 5;

volatile std::uint64_t g_sink = 0;  ///< keeps microbench results observable

/// Median ns per operation of `timed_pass(rank, n)`, which every rank runs
/// in lockstep and which returns the ns it timed; rank 0's time counts.
/// Passes are barrier-separated.
double pgas_ns(int ranks, std::uint64_t n,
               const std::function<void(pgas::Rank&)>& setup,
               const std::function<obs::Nanos(pgas::Rank&, std::uint64_t)>&
                   timed_pass) {
  std::vector<double> samples;
  pgas::Runtime rt(ranks);
  rt.run([&](pgas::Rank& r) {
    setup(r);
    r.barrier();
    timed_pass(r, n / 4);  // warm-up
    for (int rep = 0; rep < kReps; ++rep) {
      r.barrier();
      const obs::Nanos ns = timed_pass(r, n);
      if (r.id() == 0) samples.push_back(static_cast<double>(ns) / n);
    }
    r.barrier();
  });
  return median(samples);
}

std::map<std::string, double> pgas_micro(int ranks, std::size_t msg_bytes) {
  std::map<std::string, double> m;
  auto none = [](pgas::Rank&) {};
  m["barrier_ns"] = spanned("micro.pgas.barrier", [&] {
    return pgas_ns(ranks, 20000, none, [](pgas::Rank& r, std::uint64_t n) {
      const obs::Nanos t0 = obs::now_ns();
      for (std::uint64_t i = 0; i < n; ++i) r.barrier();
      return obs::now_ns() - t0;
    });
  });
  m["allreduce_ns"] = spanned("micro.pgas.allreduce", [&] {
    return pgas_ns(ranks, 10000, none, [](pgas::Rank& r, std::uint64_t n) {
      double v = r.id();
      const obs::Nanos t0 = obs::now_ns();
      for (std::uint64_t i = 0; i < n; ++i) v = r.allreduce_sum(v) * 0.5;
      const obs::Nanos dt = obs::now_ns() - t0;
      g_sink = static_cast<std::uint64_t>(v);
      return dt;
    });
  });
  // One rpc to the next rank plus the quiescence that guarantees it ran.
  std::vector<std::uint64_t> delivered(static_cast<std::size_t>(ranks), 0);
  m["rpc_ns"] = spanned("micro.pgas.rpc", [&] {
    return pgas_ns(ranks, 5000, none, [&](pgas::Rank& r, std::uint64_t n) {
      const int to = (r.id() + 1) % r.world_size();
      std::uint64_t* slot = &delivered[static_cast<std::size_t>(to)];
      const obs::Nanos t0 = obs::now_ns();
      for (std::uint64_t i = 0; i < n; ++i) {
        r.rpc(to, [slot] { ++*slot; });
        r.rpc_quiescence();
      }
      return obs::now_ns() - t0;
    });
  });
  // Puts of the workload's mean halo message size into the next rank's
  // channel, 64 per epoch; only the puts are timed, not the epoch barrier.
  constexpr std::uint64_t kSlots = 64;
  const std::vector<std::byte> payload(msg_bytes, std::byte{1});
  const double put_ns = spanned("micro.pgas.put", [&] {
    return pgas_ns(
        ranks, 64 * 256,
        [&](pgas::Rank& r) { r.register_channel(0, msg_bytes * kSlots); },
        [&](pgas::Rank& r, std::uint64_t n) {
          const int to = (r.id() + 1) % r.world_size();
          obs::Nanos spent = 0;
          for (std::uint64_t i = 0; i < n; i += kSlots) {
            const obs::Nanos t0 = obs::now_ns();
            for (std::uint64_t k = 0; k < kSlots; ++k) {
              r.put(to, 0, std::span<const std::byte>(payload), k * msg_bytes);
            }
            spent += obs::now_ns() - t0;
            r.barrier();
          }
          return spent;
        });
  });
  m["put_ns_per_kib"] = put_ns * 1024.0 / static_cast<double>(msg_bytes);
  return m;
}

/// Median ns per operation of `pass(n)`, which performs n operations.
double host_ns(std::uint64_t n, const std::function<void(std::uint64_t)>& pass) {
  pass(n / 4);  // warm-up
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const obs::Nanos t0 = obs::now_ns();
    pass(n);
    samples.push_back(static_cast<double>(obs::now_ns() - t0) / n);
  }
  return median(samples);
}

std::map<std::string, double> gpusim_micro(std::uint64_t launch_threads,
                                           std::uint32_t block_dim) {
  std::map<std::string, double> m;
  gpusim::Device dev(0);
  gpusim::DeviceBuffer<float> a(dev, 64), b(dev, 64), c(dev, 64), d(dev, 64);
  const std::uint32_t grid =
      static_cast<std::uint32_t>((launch_threads + block_dim - 1) / block_dim);
  const gpusim::LaunchConfig cfg{grid, block_dim, "perfbench"};
  const std::uint64_t threads = cfg.total_threads();
  // Enough launches per pass for about 2M dispatched threads.
  const std::uint64_t launches = std::max<std::uint64_t>(1, (1u << 21) / threads);
  auto per_thread = [&](auto&& kernel) {
    return host_ns(launches, [&](std::uint64_t n) {
             for (std::uint64_t i = 0; i < n; ++i) kernel();
           }) /
           static_cast<double>(threads);
  };

  m["ns_per_thread"] = spanned("micro.gpusim.parallel_for", [&] {
    return per_thread([&] {
      std::uint64_t s = 0;
      dev.parallel_for(cfg, [&](gpusim::ThreadCtx& t) { s += t.global_index(); });
      g_sink = s;
    });
  });
  // Four binds per thread, minus the trivial kernel, over four.
  const double bound4 = spanned("micro.gpusim.bind", [&] {
    return per_thread([&] {
      std::uint64_t s = 0;
      dev.parallel_for(cfg, [&](gpusim::ThreadCtx& t) {
        s += t.global_index() + t.global(a).size() + t.global(b).size() +
             t.global(c).size() + t.global(d).size();
      });
      g_sink = s;
    });
  });
  m["ns_per_bind"] = (bound4 - m["ns_per_thread"]) / 4.0;
  m["ns_per_block_thread"] = spanned("micro.gpusim.launch_blocks", [&] {
    return per_thread([&] {
      std::uint64_t s = 0;
      dev.launch_blocks(cfg, [&](gpusim::BlockCtx& blk) {
        blk.for_each_thread([&](std::uint32_t tid) { s += tid; });
      });
      g_sink = s;
    });
  });
  m["ns_per_launch"] = spanned("micro.gpusim.empty_launch", [&] {
    return host_ns(20000, [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        dev.parallel_for({1, 1, "empty"}, [](gpusim::ThreadCtx&) {});
      }
    });
  });
  return m;
}

std::map<std::string, double> core_micro(std::int32_t row, std::int32_t rows,
                                         const SimParams& p) {
  std::map<std::string, double> m;
  // One sub-domain's field with a zero ghost ring, swept row by row.
  const std::int32_t stride = row + 2;
  std::vector<float> field(static_cast<std::size_t>(stride) * (rows + 2), 0.f);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>((i * 2654435761u) % 1000) / 1000.f;
  }
  std::vector<float> out(field.size(), 0.f);
  const double voxels = static_cast<double>(row) * rows;
  m["stencil_ns_per_voxel"] = spanned("micro.core.diffuse_row", [&] {
    return host_ns(64, [&](std::uint64_t n) {
             for (std::uint64_t k = 0; k < n; ++k) {
               for (std::int32_t y = 1; y <= rows; ++y) {
                 const float* c = &field[static_cast<std::size_t>(y) * stride + 1];
                 stencil::diffuse_row(c, c - stride, c + stride,
                                      &out[static_cast<std::size_t>(y) * stride + 1],
                                      row, 4, p.virus_diffusion, p.min_virus);
               }
               g_sink = g_sink + static_cast<std::uint64_t>(out[stride + 1] > 0.5f);
             }
           }) /
           voxels;
  });
  const CounterRng rng(p.seed);
  m["rng_ns_per_draw"] = spanned("micro.core.rng_draw", [&] {
    return host_ns(1u << 22, [&](std::uint64_t n) {
      std::uint64_t s = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        s ^= rng.draw(i, i * 7 + 3, RngStream::kTCellBid);
      }
      g_sink = s;
    });
  });
  return m;
}

// ---- trace file ----------------------------------------------------------------

constexpr int kBenchTrack = 1000;

void write_trace(const std::string& path,
                 const std::vector<obs::TraceEvent>& ev) {
  const obs::Nanos origin = g_spans.empty() ? 0 : g_spans.front().start;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& name, int track, obs::Nanos s,
                  obs::Nanos e) {
    os << (first ? "" : ",") << "{\"name\":\"" << name
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << track
       << ",\"ts\":" << num(static_cast<double>(s - origin) / 1e3)
       << ",\"dur\":" << num(static_cast<double>(e - s) / 1e3) << "}";
    first = false;
  };
  for (const obs::TraceEvent& e : ev) {
    if (!e.counter) emit(e.name, e.track, e.start_ns, e.end_ns);
  }
  for (const Span& s : g_spans) emit(s.name, kBenchTrack, s.start, s.end);
  os << "]}\n";
}

// ---- modes ---------------------------------------------------------------------

struct Args {
  std::string mode, workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench MODE --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::runtime_error("unknown argument '" + k + "'");
  }
  return a;
}

std::string machine_json(const Workload& w) {
  const unsigned nproc = std::thread::hardware_concurrency();
  return "{\"nproc\":" + std::to_string(nproc) +
         ",\"ranks\":" + std::to_string(w.ranks) +
         ",\"ranks_per_hw_thread\":" +
         num(static_cast<double>(w.ranks) / std::max(1u, nproc)) +
         ",\"oversubscribed\":" + (w.ranks > static_cast<int>(nproc) ? "true" : "false") +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quoted(std::string("g++ ") + __VERSION__) + "}";
}

/// The serial ReferenceSim on the same inputs, with its per-step full-state
/// digests (the bit-for-bit check of the parallel engines' state).
std::string reference_json(const Inputs& in) {
  std::vector<std::uint64_t> digests;
  const double t0 = wall_now();
  ReferenceSim sim = spanned("reference", [&] {
    ReferenceSim s(in.params, in.foi, in.empty_voxels);
    for (std::int64_t i = 0; i < in.params.num_steps; ++i) {
      s.step();
      digests.push_back(s.state_digest());
    }
    return s;
  });
  const double secs = wall_now() - t0;
  return "{\"reference_s\":" + num(secs) +
         ",\"digests\":" + digests_json(digests) +
         ",\"history\":" + history_json(sim.history()) + "}";
}

int run_mode(const Args& a) {
  const Workload& w = find_workload(a.workload);
  const Inputs in = make_inputs(w, a.seed);
  const std::string head =
      "{\"workload\":" + quoted(w.name) + ",\"seed\":" + num(a.seed) +
      ",\"inputs_digest\":" + quoted(std::to_string(inputs_digest(in))) +
      ",\"foi\":" + std::to_string(in.foi.size()) +
      ",\"empty_voxels\":" + std::to_string(in.empty_voxels.size());
  if (a.mode == "inputs") {
    std::printf("%s}\n", head.c_str());
    return 0;
  }
  if (a.mode == "reference") {
    std::printf("%s,\"reference\":%s}\n", head.c_str(),
                reference_json(in).c_str());
    return 0;
  }
  if (a.mode != "run") throw std::runtime_error("unknown mode '" + a.mode + "'");

  std::vector<Job> jobs;
  std::string reference;
  if (a.trace) reference = reference_json(in);

  // Closed loop: the check job (which is also the warm-up), then timed
  // jobs until `seconds` have elapsed (at least three, for the medians).
  jobs.push_back(run_job(w, w.engine, a.seed, Kind::kCheck));
  const double t_end = wall_now() + a.seconds;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(run_job(w, w.engine, a.seed, Kind::kTimed));
  }
  // The peak over a fixed number of jobs: read after a run of --seconds, it
  // rose with the job count (by 3% on cpu_lung at 30 jobs).
  const double rss = peak_rss_mb();
  while (wall_now() < t_end) {
    jobs.push_back(run_job(w, w.engine, a.seed, Kind::kTimed));
  }

  std::string layers;
  if (a.trace) {
    // The traced run: the in-memory tracer and metrics on, separate from
    // the timed jobs.  A companion job runs the other engine on the same
    // inputs so both simulation modules' phase costs exist on every
    // workload.
    std::vector<obs::TraceEvent> events;
    for (int i = 0; i < 2; ++i) {
      jobs.push_back(run_job(w, w.engine, a.seed, Kind::kTraced));
      events = obs::tracer().events();
      obs::tracer().disable();
    }
    const Engine other = w.engine == Engine::kGpu ? Engine::kCpu : Engine::kGpu;
    jobs.push_back(run_job(w, other, a.seed, Kind::kCompanion));

    const Grid grid(in.params.dim_x, in.params.dim_y, in.params.dim_z);
    const Decomposition dec(grid, w.ranks, Decomposition::Kind::kBlock2D);
    const Subdomain sub = dec.sub(0);
    // Halo message size: the workload's own mean put size when it puts,
    // else one float row of the sub-domain edge.
    const Job& own = jobs[1];
    const std::size_t msg =
        own.comm.puts > 0
            ? static_cast<std::size_t>(own.comm.put_bytes / own.comm.puts)
            : static_cast<std::size_t>(sub.extent.x) * sizeof(float);
    auto section = [](const std::map<std::string, double>& m) {
      std::string s = "{";
      for (const auto& [k, v] : m) s += (s.size() > 1 ? "," : "") + quoted(k) + ":" + num(v);
      return s + "}";
    };
    layers = ",\"micro\":{\"pgas\":" + section(pgas_micro(w.ranks, msg)) +
             ",\"gpusim\":" +
             section(gpusim_micro(static_cast<std::uint64_t>(sub.num_voxels()),
                                  static_cast<std::uint32_t>(in.params.block_dim))) +
             ",\"core\":" + section(core_micro(sub.extent.x, sub.extent.y, in.params)) +
             ",\"halo_msg_bytes\":" + std::to_string(msg) + "}";
    if (!a.trace_out.empty()) write_trace(a.trace_out, events);
    layers += ",\"reference\":" + reference;
  }

  std::string out = head + ",\"machine\":" + machine_json(w) +
                    ",\"engine\":" + quoted(engine_name(w.engine)) +
                    ",\"steps\":" + std::to_string(w.steps) +
                    ",\"peak_rss_mb\":" + num(rss) + layers + ",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out += (i ? "," : "") + job_json(jobs[i]);
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_mode(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
