#pragma once
// Memory model: predicted bytes per rank, the modeled side of MemScope's
// memory drift rows (obs/memscope.hpp).
//
// The time drift table compares measured phase seconds against the cost
// model; the memory drift table compares the measured per-category registry
// peaks against this closed-form prediction from grid size, tiling and
// decomposition.  Today the backends allocate exactly what the layout math
// says, so divergence is ~0 — the model's job is to *stay* the contract
// while ROADMAP item 2 (tile pooling / compression at 16-64x grid) changes
// what is actually resident: a pooled backend is measured against the same
// dense prediction, and the drift rows become the savings report.
//
// Header-only and backend-agnostic: the byte-per-slot constants mirror the
// allocations in simcov_gpu/gpu_sim.cpp and simcov_cpu/cpu_sim.cpp (each
// constant's derivation is spelled out below, and tests/memscope_test.cpp
// pins them against a hand-computed layout).  The halo constants are also
// static_asserted in those two files, so a new payload must update them.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/align.hpp"

namespace simcov::perfmodel {

/// Geometry of one GPU rank's allocation: its sub-domain extent, the tile
/// edge, and the channel length of each face with a live neighbour.
struct GpuRankMemShape {
  std::int32_t w = 0;
  std::int32_t h = 0;
  std::int32_t tile_side = 1;
  std::vector<std::size_t> face_lens;  ///< live faces only (w or h each)
};

/// Bytes per padded layout slot across the 16 full-layout voxel-field
/// buffers of GpuRank: epi_state(1) + epi_timer(4) + tcell(1) +
/// tcell_timer(4) + tcell_bind(4) + virus(4) + chem(4) + tmp(4) +
/// occupancy(1) + eligible(1) + intent_kind(1) + intent_target(8) +
/// intent_bid(8) + intent_timer(4) + bid_move(8) + bid_bind(8).
constexpr std::size_t kGpuVoxelFieldBytesPerSlot = 65;

/// Bytes per tile of metadata: active_tiles(u32) + sweep_flags(u8).
constexpr std::size_t kGpuTileMetaBytesPerTile = 5;

/// Bytes per staged element across the 4 halo staging buffers:
/// stage_u8(1) + stage_u32(4) + stage_u64(8) + stage_f32(4).
constexpr std::size_t kGpuHaloStagingBytesPerSlot = 17;

/// Fixed statistics storage: stats_dev (9 doubles: virus + chem + 6 epi
/// states + tcells) + extrav (u32).
constexpr std::size_t kGpuStatsBytes = 9 * 8 + 4;

/// PGAS channel bytes per face slot on the GPU backend: 13 payload channels
/// (gpu_sim.cpp Payload enum) of sizeof(u64) each.
constexpr std::size_t kGpuPgasBytesPerFaceSlot = 13 * 8;

/// Bytes per padded voxel across the 10 CPU byte grids: epi_state(1) +
/// epi_timer(4) + tcell(1) + tcell_timer(4) + tcell_bind(4) + virus(4) +
/// chem(4) + tmp(4) + occupancy(1) + in_list(1).
constexpr std::size_t kCpuGridBytesPerVoxel = 28;

/// CPU bit grids over the padded volume, one 64-bit word per 64 voxels:
/// the active-set bitmap and its interior mask.
constexpr std::size_t kCpuBitGrids = 2;

/// PGAS channel bytes per face slot on the CPU backend: state pack
/// (epi 1 + virus 4 + chem 4) + virus tmp (float) + chem tmp (float).
constexpr std::size_t kCpuPgasBytesPerFaceSlot = 9 + 4 + 4;

/// Predicted category -> bytes for one GPU rank.  Mirrors TiledLayout:
/// interior slots are padded up to whole tiles, each tile's stride is then
/// padded to a cache line (util::pad_stride — the vectorized-sweep layout
/// contract), plus one ghost row/column pair (2w + 2h) of edge slots.
inline std::map<std::string, double> gpu_rank_memory(
    const GpuRankMemShape& s) {
  const auto w = static_cast<std::size_t>(s.w);
  const auto h = static_cast<std::size_t>(s.h);
  const auto t = static_cast<std::size_t>(s.tile_side);
  const std::size_t tiles_x = (w + t - 1) / t;
  const std::size_t tiles_y = (h + t - 1) / t;
  const std::size_t num_tiles = tiles_x * tiles_y;
  const std::size_t layout_slots =
      num_tiles * util::pad_stride(t * t) + 2 * w + 2 * h;
  const std::size_t stage_slots = w > h ? w : h;
  std::size_t face_slots = 0;
  for (const std::size_t len : s.face_lens) face_slots += len;
  std::map<std::string, double> out;
  out["voxel_fields"] =
      static_cast<double>(layout_slots * kGpuVoxelFieldBytesPerSlot);
  out["tile_metadata"] =
      static_cast<double>(num_tiles * kGpuTileMetaBytesPerTile);
  out["halo_staging"] =
      static_cast<double>(stage_slots * kGpuHaloStagingBytesPerSlot);
  out["stats"] = static_cast<double>(kGpuStatsBytes);
  if (face_slots != 0) {
    out["pgas"] = static_cast<double>(face_slots * kGpuPgasBytesPerFaceSlot);
  }
  return out;
}

/// Geometry of one CPU rank's allocation (the CPU backend keeps z whole, so
/// face channel lengths are already multiplied by dz by the caller).
struct CpuRankMemShape {
  std::int32_t w = 0;
  std::int32_t h = 0;
  std::int32_t dz = 1;
  std::vector<std::size_t> face_lens;  ///< live faces only ((w or h) * dz)
};

/// Predicted category -> bytes for one CPU rank: 10 byte grids and 2 bit
/// grids over the padded volume — rows are (w+2) ghost-inclusive columns
/// rounded up to a cache line (util::pad_stride, the vectorized-sweep row
/// stride) by (h+2) rows by dz planes — plus the per-face PGAS channels.
inline std::map<std::string, double> cpu_rank_memory(
    const CpuRankMemShape& s) {
  const std::size_t padded =
      util::pad_stride(static_cast<std::size_t>(s.w) + 2) *
      static_cast<std::size_t>(s.h + 2) * static_cast<std::size_t>(s.dz);
  std::size_t face_slots = 0;
  for (const std::size_t len : s.face_lens) face_slots += len;
  std::map<std::string, double> out;
  const std::size_t bit_grid_bytes = (padded + 63) / 64 * sizeof(std::uint64_t);
  out["host_grid"] = static_cast<double>(padded * kCpuGridBytesPerVoxel +
                                         kCpuBitGrids * bit_grid_bytes);
  if (face_slots != 0) {
    out["pgas"] = static_cast<double>(face_slots * kCpuPgasBytesPerFaceSlot);
  }
  return out;
}

}  // namespace simcov::perfmodel
