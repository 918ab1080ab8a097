#pragma once
// SIMCoV-GPU: the multinode, multi-GPU implementation (paper §3).
//
// One PGAS rank drives one virtual GPU (the paper runs one UPC++ process
// per physical GPU).  Each device holds its sub-domain in a tiled layout
// with a ghost halo; a timestep runs the kernel sequence of Fig. 2 — choose
// directions & bids, exchange boundary bids/intents, set flips, move agents
// — followed by epithelial and diffusion kernels, a periodic active-tile
// sweep (§3.2), and the per-step statistics reduction (§3.3, atomic or
// shared-memory tree variant).
//
// The four optimization variants of §3.4 (Unoptimized / Fast Reduction /
// Memory Tiling / Combined) are selected by GpuVariant; all four compute
// the identical simulation (bit-equal to the serial reference).

#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/types.hpp"
#include "spmd/run.hpp"

namespace simcov::gpu {

/// Optimization toggles (§3.4).
struct GpuVariant {
  bool memory_tiling = true;   ///< §3.2: skip inactive tiles + tiled locality
  bool fast_reduction = true;  ///< §3.3: tree reduction instead of atomics

  static GpuVariant unoptimized() { return {false, false}; }
  static GpuVariant fast_reduction_only() { return {false, true}; }
  static GpuVariant memory_tiling_only() { return {true, false}; }
  static GpuVariant combined() { return {true, true}; }

  std::string name() const {
    if (memory_tiling && fast_reduction) return "Combined";
    if (memory_tiling) return "Memory Tiling";
    if (fast_reduction) return "Fast Reduction";
    return "Unoptimized";
  }
};

/// Team shape, cost-model inputs and instruments (spmd::RunOptions), plus
/// the §3.4 optimization variant.
struct GpuSimOptions : spmd::RunOptions {
  GpuVariant variant = GpuVariant::combined();
};

/// Both backends return the shared spmd::RunResult; device_total,
/// check_*, kernel_profile and prof_binds are GPU-only.
using GpuRunResult = spmd::RunResult;

/// Runs the full simulation SPMD with one virtual GPU per rank.
GpuRunResult run_gpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const GpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels = {});

}  // namespace simcov::gpu
