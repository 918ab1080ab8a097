#pragma once
// Tiled memory layout for a GPU rank's sub-domain (paper §3.2, Fig. 3).
//
// A rank's W x H interior is covered by square tiles of side `tile`; each
// tile's voxels are stored contiguously (the zig-zag traversal of Fig. 3B),
// giving the data locality the paper exploits, and making a tile the unit
// of activity tracking.  Edge tiles are padded to tile*tile slots so tile
// offsets stay closed-form; padding slots are skipped by every kernel via
// the (x, y) bounds guard.  The one-voxel ghost halo is stored as four
// strips after the interior (von Neumann interactions never need corner
// ghosts).
//
// Tile storage is padded to a cache-line-aligned stride (util::pad_stride):
// slots_per_tile() voxels live at the start of each tile_stride()-slot
// block, and the trailing pad slots are never addressed by index() nor
// mapped to valid coordinates by slot_to_xy() (they return the (w, h)
// sentinel, which every kernel's bounds guard already skips).  Combined
// with DeviceBuffer's aligned storage this makes each tile row's address
// alignment uniform across tiles, which is what lets the vectorized
// stencil sweep (core/stencil.hpp) run whole rows with aligned accesses.
//
// Index arithmetic divides only by runtime-invariant divisors (tile side,
// tiles per row, tile stride, slots per tile), so the layout precomputes a
// Reciprocal for each and index()/slot_to_xy() run divide-free, the way
// CUDA kernels replace a division by a launch constant with __umulhi.  The
// padded size must fit in 32 bits (checked at construction), which is what
// keeps every numerator a 32-bit value.
//
// This is a plain value type: kernels capture it by copy and call index().

#include <cstdint>
#include <limits>

#include "util/align.hpp"
#include "util/error.hpp"

namespace simcov::gpu {

/// Exact unsigned division of any 32-bit numerator by a fixed divisor d in
/// [1, 2^31], as one 64x64 multiply-high.  With m = ceil(2^63 / d),
/// floor(n * m / 2^63) == n / d: writing m*d = 2^63 + e with e < d, the
/// error term n*e/(d*2^63) stays below 1/d because n*e < 2^32 * 2^31.
class Reciprocal {
 public:
  explicit Reciprocal(std::uint32_t d)
      : d_(checked(d)), m_(((std::uint64_t{1} << 63) - 1) / d_ + 1) {}

  std::uint32_t divisor() const { return d_; }
  /// n / d (callers take n % d as n - div(n) * divisor()).  The numerator
  /// is doubled so the quotient is the high half of the product.
  std::uint32_t div(std::uint32_t n) const {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(m_) * (std::uint64_t{n} << 1)) >> 64);
  }

 private:
  static std::uint32_t checked(std::uint32_t d) {
    SIMCOV_REQUIRE(d >= 1 && d <= (std::uint32_t{1} << 31),
                   "reciprocal divisor must be in [1, 2^31]");
    return d;
  }

  std::uint32_t d_;
  std::uint64_t m_;
};

class TiledLayout {
 public:
  TiledLayout(std::int32_t w, std::int32_t h, std::int32_t tile)
      : w_(w), h_(h), tile_(tile), tiles_x_(checked_tiles(w, tile)),
        tiles_y_(checked_tiles(h, tile)),
        stride_(util::pad_stride_u32(static_cast<std::uint32_t>(tile * tile))),
        interior_(checked_interior(w, h, tiles_x_, tiles_y_, stride_)),
        tile_div_(static_cast<std::uint32_t>(tile)),
        tiles_x_div_(static_cast<std::uint32_t>(tiles_x_)),
        stride_div_(stride_),
        spt_div_(static_cast<std::uint32_t>(tile * tile)) {}

  std::int32_t width() const { return w_; }
  std::int32_t height() const { return h_; }
  std::int32_t tile_side() const { return tile_; }
  std::int32_t tiles_x() const { return tiles_x_; }
  std::int32_t tiles_y() const { return tiles_y_; }
  std::int32_t num_tiles() const { return tiles_x_ * tiles_y_; }
  std::int32_t slots_per_tile() const { return tile_ * tile_; }

  /// Storage stride between consecutive tiles: slots_per_tile() rounded up
  /// to a cache-line-aligned multiple (util::pad_stride).  The pad slots at
  /// the end of each tile block are dead storage — index() never returns
  /// them and slot_to_xy() maps them to the out-of-range sentinel.
  std::uint32_t tile_stride() const { return stride_; }

  /// Interior storage including tile padding (edge-tile padding to a full
  /// tile, plus per-tile stride padding to an aligned tile_stride()).
  std::uint32_t interior_slots() const { return interior_; }

  /// Total storage: interior + the four ghost strips (2h + 2w).
  std::uint32_t size() const {
    return interior_slots() + 2u * static_cast<std::uint32_t>(h_) +
           2u * static_cast<std::uint32_t>(w_);
  }

  /// Memory slot of local coordinate (x, y); accepts the ghost ring
  /// (x == -1, x == w, y == -1 or y == h) but never ghost corners.
  [[gnu::always_inline]] std::uint32_t index(std::int32_t x,
                                             std::int32_t y) const {
    if (x >= 0 && x < w_ && y >= 0 && y < h_) {
      const auto ux = static_cast<std::uint32_t>(x);
      const auto uy = static_cast<std::uint32_t>(y);
      const auto ut = static_cast<std::uint32_t>(tile_);
      const std::uint32_t tx = tile_div_.div(ux), ty = tile_div_.div(uy);
      const std::uint32_t ix = ux - tx * ut, iy = uy - ty * ut;
      return (ty * static_cast<std::uint32_t>(tiles_x_) + tx) * stride_ +
             iy * ut + ix;
    }
    const std::uint32_t base = interior_;
    const auto uh = static_cast<std::uint32_t>(h_);
    const auto uw = static_cast<std::uint32_t>(w_);
    if (x == -1) {
      SIMCOV_ASSERT(y >= 0 && y < h_, "ghost corner access");
      return base + static_cast<std::uint32_t>(y);
    }
    if (x == w_) {
      SIMCOV_ASSERT(y >= 0 && y < h_, "ghost corner access");
      return base + uh + static_cast<std::uint32_t>(y);
    }
    if (y == -1) {
      SIMCOV_ASSERT(x >= 0 && x < w_, "ghost corner access");
      return base + 2 * uh + static_cast<std::uint32_t>(x);
    }
    SIMCOV_ASSERT(y == h_ && x >= 0 && x < w_, "index outside padded domain");
    return base + 2 * uh + uw + static_cast<std::uint32_t>(x);
  }

  /// Inverse of index() for interior+padding slots: slot -> (x, y).  For
  /// padding slots — an edge tile's out-of-domain voxels, or the stride
  /// padding after slots_per_tile() — the returned coordinates fall outside
  /// [0,w)x[0,h) (stride padding returns the (w, h) sentinel); the caller's
  /// bounds guard skips them.
  void slot_to_xy(std::uint32_t slot, std::int32_t& x, std::int32_t& y) const {
    SIMCOV_ASSERT(slot < interior_, "slot is not interior");
    const std::uint32_t t = stride_div_.div(slot);
    const std::uint32_t in = slot - t * stride_;
    if (in >= spt_div_.divisor()) {  // stride padding: no voxel lives here
      x = w_;
      y = h_;
      return;
    }
    tile_voxel_xy(t, in, x, y);
  }

  /// Coordinates of voxel `in` (< slots_per_tile()) of tile `tile_id`;
  /// outside [0,w)x[0,h) for an edge tile's padding voxels.
  void tile_voxel_xy(std::uint32_t tile_id, std::uint32_t in, std::int32_t& x,
                     std::int32_t& y) const {
    const auto ut = static_cast<std::uint32_t>(tile_);
    const std::uint32_t ty = tiles_x_div_.div(tile_id);
    const std::uint32_t tx = tile_id - ty * tiles_x_div_.divisor();
    const std::uint32_t iy = tile_div_.div(in);
    const std::uint32_t ix = in - iy * ut;
    x = static_cast<std::int32_t>(tx * ut + ix);
    y = static_cast<std::int32_t>(ty * ut + iy);
  }

  /// Reciprocals of tile_side() and slots_per_tile(), for kernels that
  /// split a flat thread index over the active tile list (rows, voxels).
  const Reciprocal& tile_side_div() const { return tile_div_; }
  const Reciprocal& slots_per_tile_div() const { return spt_div_; }

  /// Tile id containing interior coordinate (x, y).
  std::int32_t tile_of(std::int32_t x, std::int32_t y) const {
    SIMCOV_ASSERT(x >= 0 && x < w_ && y >= 0 && y < h_, "tile_of out of range");
    return (y / tile_) * tiles_x_ + x / tile_;
  }

  /// True when the tile touches the sub-domain border (such tiles contain
  /// the voxels adjacent to the ghost halo and stay active always, §3.2).
  bool is_border_tile(std::int32_t tile_id) const {
    const std::int32_t tx = tile_id % tiles_x_, ty = tile_id / tiles_x_;
    return tx == 0 || tx == tiles_x_ - 1 || ty == 0 || ty == tiles_y_ - 1;
  }

 private:
  static std::int32_t checked_tiles(std::int32_t extent, std::int32_t tile) {
    SIMCOV_REQUIRE(extent >= 1, "layout dims must be positive");
    SIMCOV_REQUIRE(tile >= 1, "tile side must be positive");
    SIMCOV_REQUIRE(tile <= 32, "tile side > 32 exceeds one block per tile");
    return static_cast<std::int32_t>(
        (static_cast<std::int64_t>(extent) + tile - 1) / tile);
  }
  /// Interior slot count, after checking that the whole padded size
  /// (interior plus the 2w + 2h ghost slots) fits in 32 bits: slots are
  /// uint32_t everywhere, and the Reciprocal division needs 32-bit
  /// numerators.
  static std::uint32_t checked_interior(std::int32_t w, std::int32_t h,
                                        std::int32_t tiles_x,
                                        std::int32_t tiles_y,
                                        std::uint32_t stride) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    // Both products stay far below 2^64: tiles < 2^62, and the interior is
    // only formed once tiles * stride is known to fit in 32 bits.
    const std::uint64_t tiles = static_cast<std::uint64_t>(tiles_x) *
                                static_cast<std::uint64_t>(tiles_y);
    const std::uint64_t ghosts = 2 * static_cast<std::uint64_t>(w) +
                                 2 * static_cast<std::uint64_t>(h);
    SIMCOV_REQUIRE(tiles <= kMax / stride && tiles * stride + ghosts <= kMax,
                   "tiled layout size exceeds 32-bit slot indices");
    return static_cast<std::uint32_t>(tiles * stride);
  }

  std::int32_t w_, h_, tile_;
  std::int32_t tiles_x_, tiles_y_;
  std::uint32_t stride_;    ///< tile_stride()
  std::uint32_t interior_;  ///< interior_slots()
  Reciprocal tile_div_, tiles_x_div_, stride_div_, spt_div_;
};

}  // namespace simcov::gpu
