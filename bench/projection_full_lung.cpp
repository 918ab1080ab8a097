// Projection: what would a full-lung simulation need? (paper §6)
//
// "The total air volume of the average pair of healthy adult human lungs is
// approximately six liters ... with five cubic micron voxels this
// corresponds roughly to a simulation size of order 10^13 voxels — far
// larger than any SIMCoV simulation run to date.  To achieve this scale
// will require exascale supercomputers."
//
// This bench measures the per-voxel-step cost of both backends on a real
// (scaled) run, then projects the wall time of one simulated day
// (1,440 one-minute steps) of a 10^13-voxel lung across GPU counts — the
// quantitative version of the paper's closing argument.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "projection_full_lung",
      "Projection: full-lung (10^13 voxels) runtime vs GPU count (§6)",
      "discussion estimate only ('will require exascale supercomputers')",
      "per-voxel-step costs measured on a 256^2 run at paper per-rank load, "
      "linear projection to 1e13 voxels, dense activity");

  // Measure per-(active)voxel-step modeled cost at paper per-rank load.
  harness::RunSpec spec;
  spec.params = bench::bench_params(256, 256, 300, 64);  // dense activity
  spec.area_scale = bench::kGpuAreaScale;
  const auto g = rep.run_gpu("gpu 4 ranks dense", spec, 4);
  spec.area_scale = bench::kCpuAreaScale;
  const auto c = rep.run_cpu("cpu 8 ranks dense", spec, bench::cpu_ranks_for(128));

  // Modeled voxel-steps at paper scale for the measured runs.
  const double voxel_steps_gpu = 256.0 * 256.0 * bench::kGpuAreaScale * 300.0;
  const double voxel_steps_cpu = 256.0 * 256.0 * bench::kCpuAreaScale *
                                 bench::kCpuRankCompression * 300.0;
  // Per-unit rates, normalized to the resources used (4 GPUs / 128 cores).
  const double s_per_voxelstep_per_gpu = g.cost.total_s * 4.0 / voxel_steps_gpu;
  const double s_per_voxelstep_per_core =
      c.cost.total_s * 128.0 / voxel_steps_cpu;

  std::printf("measured: %.3g s/voxel-step/GPU, %.3g s/voxel-step/core\n\n",
              s_per_voxelstep_per_gpu, s_per_voxelstep_per_core);

  const double lung_voxels = 1e13;
  const double steps_per_day = 1440.0;  // one-minute timesteps
  TextTable t({"GPUs", "= CPU cores", "GPU: one sim-day", "CPU: one sim-day"});
  auto human = [](double seconds) {
    if (seconds > 2 * 86400) return fmt(seconds / 86400.0, 1) + " days";
    if (seconds > 2 * 3600) return fmt(seconds / 3600.0, 1) + " hours";
    return fmt(seconds, 0) + " s";
  };
  for (double gpus : {512.0, 2048.0, 8192.0, 37888.0 /* full Frontier-class */}) {
    const double cores = 32.0 * gpus;
    const double tg =
        lung_voxels * steps_per_day * s_per_voxelstep_per_gpu / gpus;
    const double tc =
        lung_voxels * steps_per_day * s_per_voxelstep_per_core / cores;
    t.add_row({fmt(gpus, 0), fmt(cores, 0), human(tg), human(tc)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Assumes dense activity and perfect weak scaling beyond the measured\n"
      "range (Fig. 7 supports near-flat GPU weak scaling).  The point of the\n"
      "paper's closing argument survives quantification: only a GPU-dense\n"
      "exascale machine brings a simulated day of a full lung into\n"
      "practical turnaround.\n");
  rep.metric("s_per_voxelstep_per_gpu", s_per_voxelstep_per_gpu);
  rep.metric("s_per_voxelstep_per_core", s_per_voxelstep_per_core);
  rep.finish();
  return 0;
}
