// Figure 7 (§4.3): weak scaling — resources, voxels and FOI double together.
//
// Expected shape: SIMCoV-GPU outperforms SIMCoV-CPU at every point (~4-5x);
// GPU runtime rises from the base to the middle configurations (initial
// cost of parallelism) and then stays nearly constant, while SIMCoV-CPU
// gradually loses performance; paper speedups: 4.91, 4.38, 3.53, 3.48, 3.82.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "fig7_weak_scaling",
      "Figure 7: weak scaling (problem size doubles with resources)",
      "10,000^2 -> 40,000^2 voxels, FOI 16 -> 256, {4,128}..{64,2048}",
      "256^2 -> 1024^2 voxels, FOI 16 -> 256, 240 steps, same rank mapping "
      "as Fig. 6");

  const double paper_speedups[5] = {4.91, 4.38, 3.53, 3.48, 3.82};
  const int dims_x[5] = {256, 512, 512, 1024, 1024};
  const int dims_y[5] = {256, 256, 512, 512, 1024};

  std::vector<double> gpu_t, cpu_t;
  TextTable t({"{GPUs,CPUs}", "Grid", "FOI", "SIMCoV-CPU (s)",
               "SIMCoV-GPU (s)", "Speedup", "Paper speedup"});
  for (int i = 0; i < 5; ++i) {
    const int gpus = 4 << i;
    const int paper_cpus = 128 << i;
    const long long foi = 16LL << i;
    harness::RunSpec spec;
    spec.params = bench::bench_params(dims_x[i], dims_y[i], 240, foi);
    spec.area_scale = bench::kGpuAreaScale;
    const auto g = rep.run_gpu("gpu " + std::to_string(gpus), spec, gpus);
    spec.area_scale = bench::kCpuAreaScale;
    const auto c = rep.run_cpu("cpu " + std::to_string(paper_cpus), spec,
                              bench::cpu_ranks_for(paper_cpus));
    gpu_t.push_back(g.cost.total_s);
    cpu_t.push_back(c.cost.total_s);
    t.add_row({fmt_resources(gpus, paper_cpus),
               std::to_string(dims_x[i]) + "x" + std::to_string(dims_y[i]),
               std::to_string(foi), fmt(c.cost.total_s),
               fmt(g.cost.total_s), fmt(harness::speedup(c, g)),
               fmt(paper_speedups[i])});
    std::fprintf(stderr, "  ran {%d,%d} %dx%d\n", gpus, paper_cpus,
                 dims_x[i], dims_y[i]);
  }
  std::printf("%s\n", t.to_string().c_str());

  bool gpu_wins_everywhere = true;
  for (int i = 0; i < 5; ++i) {
    gpu_wins_everywhere = gpu_wins_everywhere && gpu_t[i] < cpu_t[i];
  }
  rep.shape_check("GPU outperforms CPU at every configuration",
                           gpu_wins_everywhere);
  rep.shape_check(
      "initial cost of parallelism: GPU runtime rises base -> mid",
      gpu_t[2] > gpu_t[0]);
  rep.shape_check(
      "GPU runtime near-constant once paid (last two within 25%)",
      gpu_t[4] < 1.25 * gpu_t[3] && gpu_t[3] < 1.25 * gpu_t[4]);
  rep.shape_check(
      "CPU gradually degrades (last point slower than first)",
      cpu_t[4] > cpu_t[0]);
  rep.shape_check(
      "speedup stays in the ~3-5x band throughout (paper 3.5-4.9)",
      cpu_t[4] / gpu_t[4] > 2.0 && cpu_t[0] / gpu_t[0] < 7.0);
  rep.finish();
  return 0;
}
