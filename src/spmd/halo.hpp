#pragma once
// The face-strip halo exchange of both backends (DESIGN.md, "Halo exchange:
// one protocol").  A Halo owns the live-face order, the channel ids, the
// put / barrier / read / barrier sequence and the strip geometry; a backend
// supplies only how a strip is packed and unpacked.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/decomposition.hpp"
#include "pgas/runtime.hpp"

namespace simcov::spmd {

/// A local voxel coordinate on a strip: x in [-1, w], y in [-1, h] (ghosts
/// sit one step outside the interior), z in [0, dz).
struct StripCoord {
  std::int32_t x, y, z;
};

/// Channel bytes one face slot costs over all streams: the figure the
/// memory model charges per face slot.
constexpr std::size_t bytes_per_face_slot(std::span<const std::size_t> w) {
  return std::accumulate(w.begin(), w.end(), std::size_t{0});
}

class Halo {
 public:
  /// Registers one channel per live (face, stream) on `rank`; stream s is
  /// slot_bytes[s] bytes wide per strip voxel.  Peers put into these
  /// channels, so every rank constructs its Halo before a barrier that
  /// precedes the first exchange (run_spmd's post-construction barrier).
  Halo(pgas::Rank& rank, const Subdomain& sub,
       std::span<const std::size_t> slot_bytes)
      : rank_(rank), neighbour_(sub.neighbour), w_(sub.extent.x),
        h_(sub.extent.y), dz_(sub.extent.z),
        streams_(static_cast<int>(slot_bytes.size())) {
    for_each_live_face([&](int f, int) {
      for (int s = 0; s < streams_; ++s) {
        rank_.register_channel(
            channel(f, s),
            face_len(f) * slot_bytes[static_cast<std::size_t>(s)]);
      }
    });
  }

  static constexpr int opposite(int face) { return face ^ 1; }

  /// Calls fn(face, neighbour_rank) for every live face, ascending.
  template <typename F>
  void for_each_live_face(F&& fn) const {
    for (int f = 0; f < kNumFaces; ++f) {
      const int nb = neighbour_[static_cast<std::size_t>(f)];
      if (nb >= 0) fn(f, nb);
    }
  }

  /// Voxels on the strip along `face`: one row per z plane.
  std::size_t face_len(int face) const {
    return row_len(face) * static_cast<std::size_t>(dz_);
  }

  /// face_len of every live face, ascending (the memory model's shape).
  std::vector<std::size_t> face_lens() const {
    std::vector<std::size_t> out;
    for_each_live_face([&](int f, int) { out.push_back(face_len(f)); });
    return out;
  }

  /// The i-th voxel of this rank's boundary strip along `face`.
  StripCoord boundary(int face, std::size_t i) const { return at(face, i, 0); }
  /// The i-th ghost voxel just outside `face`.
  StripCoord ghost(int face, std::size_t i) const { return at(face, i, 1); }

  /// One exchange of `stream` across every live face, `elem_bytes` per
  /// strip voxel (at most the stream's slot width):
  ///   pack(face, out)   fills the strip bound for face's neighbour;
  ///   unpack(face, in)  consumes the strip that arrived on face.
  /// Both spans hold face_len(face) * elem_bytes bytes.
  template <typename Pack, typename Unpack>
  void exchange(int stream, std::size_t elem_bytes, Pack&& pack,
                Unpack&& unpack) {
    for_each_live_face([&](int f, int nb) {
      scratch_.resize(std::max(scratch_.size(), face_len(f) * elem_bytes));
      const auto out = std::span(scratch_).first(face_len(f) * elem_bytes);
      pack(f, out);
      rank_.put(nb, channel(opposite(f), stream), out);
    });
    rank_.barrier();
    for_each_live_face([&](int f, int) {
      unpack(f, rank_.channel(channel(f, stream))
                    .first(face_len(f) * elem_bytes));
    });
    // The next exchange reuses these channels: the GPU's bid stages 1b and
    // 2 ship on the same kPBidMove/kPBidBind channels back to back, and
    // both fields' tmp strips share one channel.  Without this barrier a
    // fast rank's next put could land in a strip a peer is still reading.
    rank_.barrier();
  }

 private:
  int channel(int face, int stream) const { return face * streams_ + stream; }

  std::size_t row_len(int face) const {
    return static_cast<std::size_t>(
        face == kFaceXNeg || face == kFaceXPos ? h_ : w_);
  }

  /// Strip voxel i at `out` steps outside the interior (0: boundary,
  /// 1: ghost).  Strips run z-major, one row per plane; index i names the
  /// same voxel pair on both sides of a face.  One plane divides nothing.
  StripCoord at(int face, std::size_t i, std::int32_t out) const {
    const std::size_t row = row_len(face);
    const auto z = static_cast<std::int32_t>(dz_ > 1 ? i / row : 0);
    const auto j = static_cast<std::int32_t>(dz_ > 1 ? i % row : i);
    switch (face) {
      case kFaceXNeg: return {-out, j, z};
      case kFaceXPos: return {w_ - 1 + out, j, z};
      case kFaceYNeg: return {j, -out, z};
      default: return {j, h_ - 1 + out, z};
    }
  }

  pgas::Rank& rank_;
  std::array<int, kNumFaces> neighbour_;
  std::int32_t w_, h_, dz_;
  int streams_;
  /// Outgoing strip, reused by every face: put() copies it on the call.
  std::vector<std::byte> scratch_;
};

}  // namespace simcov::spmd
