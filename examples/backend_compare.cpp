// Parallel API quickstart: run the identical simulation on all three
// engines — the serial reference, SIMCoV-CPU (rank-per-core baseline with
// active lists + RPC tiebreaks) and SIMCoV-GPU (virtual GPUs with tiled
// memory, bid-based conflict resolution and tree reductions) — verify they
// agree bit-for-bit, and report the modeled target-machine runtimes.
//
// Usage: backend_compare [key=value ...]  (SimParams keys, plus
//   cpu_ranks=<n> gpu_ranks=<n>)

#include <cstdio>
#include <exception>

#include "harness/experiment.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  try {
    simcov::Config cfg = simcov::Config::from_args(argc - 1, argv + 1);
    const int cpu_ranks =
        static_cast<int>(cfg.has("cpu_ranks") ? cfg.get_int("cpu_ranks") : 8);
    const int gpu_ranks =
        static_cast<int>(cfg.has("gpu_ranks") ? cfg.get_int("gpu_ranks") : 4);
    simcov::Config sim_cfg;
    for (const auto& k : cfg.keys()) {
      if (k != "cpu_ranks" && k != "gpu_ranks") sim_cfg.set(k, cfg.get_string(k));
    }

    simcov::harness::RunSpec spec;
    spec.params = simcov::SimParams::bench_fast();
    spec.params.dim_x = 128;
    spec.params.dim_y = 128;
    spec.params.num_steps = 300;
    spec.params.apply(sim_cfg);
    spec.params.validate();

    std::printf("# backend comparison: %s\n", spec.params.summary().c_str());

    const auto ref = simcov::harness::run_reference(spec);
    // Model the run as a 1/39-linear-scale stand-in for a paper-sized
    // problem, exactly as the figure benches do (see bench/bench_common.hpp):
    // each virtual GPU carries one A100's per-step load, each CPU rank 16
    // cores' worth.
    spec.area_scale = 95.4;
    const auto cpu = simcov::harness::run_cpu(spec, cpu_ranks);
    spec.area_scale = 1526.0;
    const auto gpu = simcov::harness::run_gpu(spec, gpu_ranks);

    // All three engines execute the same rules from the same counter-based
    // RNG; integer statistics must agree exactly.
    bool agree = true;
    for (std::size_t i = 0; i < ref.history.size(); ++i) {
      agree = agree &&
              ref.history[i].tcells_tissue == cpu.history[i].tcells_tissue &&
              ref.history[i].tcells_tissue == gpu.history[i].tcells_tissue &&
              ref.history[i].epi_counts == cpu.history[i].epi_counts &&
              ref.history[i].epi_counts == gpu.history[i].epi_counts;
    }
    std::printf("engines agree on every step: %s\n\n",
                agree ? "yes" : "NO (bug!)");

    simcov::TextTable t({"engine", "resources", "modeled runtime (s)",
                         "update agents (s)", "reduce stats (s)"});
    t.add_row({"reference (serial)", "1 host core", "n/a", "n/a", "n/a"});
    t.add_row({"SIMCoV-CPU", std::to_string(cpu_ranks) + " ranks (x16 cores)",
               simcov::fmt(cpu.cost.total_s),
               simcov::fmt(cpu.cost.update_agents_s()),
               simcov::fmt(cpu.cost.reduce_stats_s())});
    t.add_row({"SIMCoV-GPU", std::to_string(gpu_ranks) + " virtual GPUs",
               simcov::fmt(gpu.cost.total_s),
               simcov::fmt(gpu.cost.update_agents_s()),
               simcov::fmt(gpu.cost.reduce_stats_s())});
    std::printf("%s\n", t.to_string().c_str());
    std::printf("modeled GPU speedup over CPU: %.2fx\n",
                simcov::harness::speedup(cpu, gpu));
    return agree ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
