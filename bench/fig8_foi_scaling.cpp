// Figure 8 (§4.4): impact of the number of foci of infection (FOI).
//
// Fixed resources ({16 GPUs, 512 cores} on 4 Perlmutter nodes in the
// paper), fixed grid, FOI doubling 64 -> 1024.  Expected shape: SIMCoV-GPU's
// runtime grows sublinearly (activity saturates; the always-swept reduction
// is FOI-independent), SIMCoV-CPU's grows much faster (active-list work
// scales with activity), so the speedup climbs from ~3.5x to ~12x.  The
// paper could not afford a 1024-FOI CPU trial; we run it anyway.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "fig8_foi_scaling",
      "Figure 8: FOI scaling (activity density) at fixed resources",
      "20,000^2 voxels, {16,512}, FOI 64..1024 (no CPU trial at 1024)",
      "512^2 voxels, {16 GPU ranks, 32 CPU ranks}, 300 steps, FOI 64..1024");

  const double paper_speedups[4] = {3.53, 5.16, 7.68, 11.97};

  std::vector<double> gpu_t, cpu_t;
  TextTable t({"FOI", "SIMCoV-CPU (s)", "SIMCoV-GPU (s)", "Speedup",
               "Paper speedup"});
  int i = 0;
  for (long long foi : {64LL, 128LL, 256LL, 512LL, 1024LL}) {
    harness::RunSpec spec;
    spec.params = bench::bench_params(512, 512, 275, foi);
    // Keep infection foci spatially sparse, as on the paper's 20,000^2
    // grid: slower spread and tighter zero-floors so the active fraction
    // stays proportional to FOI instead of saturating the (scaled-down)
    // domain within the run.
    spec.params.virus_diffusion = 0.15;
    spec.params.infectivity = 0.006;
    spec.params.virus_production = 0.04;
    spec.params.chem_diffusion = 0.6;
    spec.params.min_chem = 1e-4;
    spec.params.min_virus = 1e-4;
    spec.area_scale = bench::kGpuAreaScale;
    const auto g = rep.run_gpu("gpu foi " + std::to_string(foi), spec, 16);
    spec.area_scale = bench::kCpuAreaScale;
    const auto c = rep.run_cpu("cpu foi " + std::to_string(foi), spec,
                              bench::cpu_ranks_for(512));
    gpu_t.push_back(g.cost.total_s);
    cpu_t.push_back(c.cost.total_s);
    t.add_row({std::to_string(foi), fmt(c.cost.total_s),
               fmt(g.cost.total_s), fmt(harness::speedup(c, g)),
               i < 4 ? fmt(paper_speedups[i]) : std::string("n/a*")});
    std::fprintf(stderr, "  ran FOI=%lld\n", foi);
    ++i;
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("  *the paper reports no CPU measurement at 1024 FOI.\n\n");

  const std::size_t n = gpu_t.size();
  rep.shape_check(
      "GPU runtime grows sublinearly in FOI (16x FOI -> < 4x time)",
      gpu_t[n - 1] < 4.0 * gpu_t[0]);
  rep.shape_check(
      "CPU runtime grows much faster than GPU's",
      cpu_t[n - 1] / cpu_t[0] > 2.0 * (gpu_t[n - 1] / gpu_t[0]));
  rep.shape_check(
      "speedup climbs monotonically with FOI",
      cpu_t[1] / gpu_t[1] > cpu_t[0] / gpu_t[0] &&
          cpu_t[3] / gpu_t[3] > cpu_t[1] / gpu_t[1]);
  // The paper's top annotation is 11.97x; our absolute level is lower
  // (the CPU baseline's load imbalance is measured at 32-way rather than
  // 512-way granularity, see EXPERIMENTS.md), but the multiplicative climb
  // matches: ~3.4x from the first to the last measured point.
  rep.shape_check(
      "speedup multiplies ~3x+ from lowest to highest FOI (paper 3.4x)",
      cpu_t[n - 1] / gpu_t[n - 1] > 3.0 * (cpu_t[0] / gpu_t[0]));
  rep.finish();
  return 0;
}
