#pragma once
// SIMCoV-CPU: the baseline parallel implementation (paper §2.2, §4).
//
// One PGAS rank per CPU core (the original runs one UPC++ process per
// core).  Each rank owns a sub-domain with a one-voxel ghost ring, tracks an
// *active list* of voxels that can possibly change, resolves T cell spatial
// competition with RPC round-trips to the voxel owner (bid + reply), and
// exchanges concentration boundary strips with bulk copies.  Statistics are
// reduced every step with a UPC++-style collective.
//
// The implementation reproduces the serial reference bit-for-bit for any
// rank count and decomposition (tests/equivalence_test.cpp); its
// communication and work counters feed the performance model.

#include <vector>

#include "core/params.hpp"
#include "core/types.hpp"
#include "spmd/run.hpp"

namespace simcov::cpu {

/// Team shape, cost-model inputs and instruments.  The KernelCheck and
/// KernelProf switches have no device to act on in this backend.
using CpuSimOptions = spmd::RunOptions;

/// Both backends return the shared spmd::RunResult; the device-only fields
/// stay zero here.
using CpuRunResult = spmd::RunResult;

/// Runs the full simulation SPMD over options.num_ranks ranks and returns
/// the reduced history plus modeled cost.
CpuRunResult run_cpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const CpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels = {});

}  // namespace simcov::cpu
