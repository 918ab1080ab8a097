// Figure 6 (§4.2): strong scaling of SIMCoV-GPU vs SIMCoV-CPU.
//
// Fixed problem size; compute resources double per configuration from
// {4 GPUs, 128 CPU cores} to {64, 2048}.  Expected shape: SIMCoV-GPU is
// several times faster at the base configuration but saturates as GPUs are
// added (the per-GPU slice becomes too small), while SIMCoV-CPU keeps
// scaling; the speedup annotation decays from ~5x to below 1x at the top.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "fig6_strong_scaling",
      "Figure 6: strong scaling (fixed problem, resources double)",
      "10,000^2 voxels, 16 FOI, 33,120 steps, {4,128}..{64,2048}",
      "256^2 voxels, 16 FOI, 300 steps, GPU ranks = paper GPUs, CPU ranks = "
      "paper cores / 16");

  const double paper_speedups[5] = {4.98, 3.38, 2.59, 1.38, 0.85};

  harness::RunSpec spec;
  spec.params = bench::bench_params(256, 256, 300, 16);

  std::vector<double> gpu_t, cpu_t;
  TextTable t({"{GPUs,CPUs}", "SIMCoV-CPU (s)", "SIMCoV-GPU (s)",
               "Speedup", "Paper speedup", "CPU optimal (s)",
               "GPU optimal (s)"});
  for (int i = 0; i < 5; ++i) {
    const int gpus = 4 << i;
    const int paper_cpus = 128 << i;
    spec.area_scale = bench::kGpuAreaScale;
    const auto g = rep.run_gpu("gpu " + std::to_string(gpus), spec, gpus);
    spec.area_scale = bench::kCpuAreaScale;
    const auto c = rep.run_cpu("cpu " + std::to_string(paper_cpus), spec,
                              bench::cpu_ranks_for(paper_cpus));
    gpu_t.push_back(g.cost.total_s);
    cpu_t.push_back(c.cost.total_s);
    t.add_row({fmt_resources(gpus, paper_cpus), fmt(c.cost.total_s),
               fmt(g.cost.total_s), fmt(harness::speedup(c, g)),
               fmt(paper_speedups[i]), fmt(cpu_t[0] / (1 << i)),
               fmt(gpu_t[0] / (1 << i))});
    std::fprintf(stderr, "  ran {%d,%d}\n", gpus, paper_cpus);
  }
  std::printf("%s\n", t.to_string().c_str());

  rep.shape_check("GPU beats CPU at the base configuration",
                           gpu_t[0] < cpu_t[0]);
  rep.shape_check(
      "speedup decays monotonically as resources grow",
      cpu_t[0] / gpu_t[0] > cpu_t[2] / gpu_t[2] &&
          cpu_t[2] / gpu_t[2] > cpu_t[4] / gpu_t[4]);
  rep.shape_check(
      "GPU saturates: last doubling gains < 30% (paper: curve flattens)",
      gpu_t[4] > 0.7 * gpu_t[3]);
  rep.shape_check(
      "CPU keeps scaling: last doubling gains > 30%",
      cpu_t[4] < 0.7 * cpu_t[3]);
  rep.shape_check("speedup drops below ~1x at {64,2048} (paper 0.85)",
                           cpu_t[4] / gpu_t[4] < 1.3);
  rep.finish();
  return 0;
}
