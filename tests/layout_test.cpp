// Tiled memory layout (§3.2, Fig. 3): index round trips, strip placement,
// tile membership — parameterized over domain shapes and tile sizes
// including non-dividing (ragged) tiles.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "simcov_gpu/layout.hpp"

namespace simcov::gpu {
namespace {

using Param = std::tuple<int, int, int>;  // w, h, tile

class TiledLayoutP : public ::testing::TestWithParam<Param> {};

TEST_P(TiledLayoutP, InteriorIndicesAreUniqueAndInBounds) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  std::set<std::uint32_t> seen;
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      const std::uint32_t s = lay.index(x, y);
      ASSERT_LT(s, lay.interior_slots());
      ASSERT_TRUE(seen.insert(s).second) << "collision at " << x << "," << y;
    }
  }
}

TEST_P(TiledLayoutP, SlotToXyInvertsIndex) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      std::int32_t rx, ry;
      lay.slot_to_xy(lay.index(x, y), rx, ry);
      ASSERT_EQ(rx, x);
      ASSERT_EQ(ry, y);
    }
  }
}

TEST_P(TiledLayoutP, GhostStripsAreDisjointFromInteriorAndEachOther) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  std::set<std::uint32_t> seen;
  for (std::int32_t y = 0; y < h; ++y) {
    seen.insert(lay.index(-1, y));
    seen.insert(lay.index(w, y));
  }
  for (std::int32_t x = 0; x < w; ++x) {
    seen.insert(lay.index(x, -1));
    seen.insert(lay.index(x, h));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(2 * w + 2 * h));
  for (std::uint32_t s : seen) {
    ASSERT_GE(s, lay.interior_slots());
    ASSERT_LT(s, lay.size());
  }
}

TEST_P(TiledLayoutP, TileMembershipConsistent) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      const std::int32_t t = lay.tile_of(x, y);
      ASSERT_GE(t, 0);
      ASSERT_LT(t, lay.num_tiles());
      // The slot must live inside the tile's contiguous (stride-padded)
      // block, below the padding sentinel region.
      const std::uint32_t s = lay.index(x, y);
      const std::uint32_t ts = lay.tile_stride();
      ASSERT_EQ(static_cast<std::int32_t>(s / ts), t);
      ASSERT_LT(s % ts, static_cast<std::uint32_t>(lay.slots_per_tile()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledLayoutP,
    ::testing::Values(Param{16, 16, 4}, Param{16, 16, 8}, Param{32, 16, 8},
                      Param{17, 13, 4},   // ragged edge tiles
                      Param{9, 9, 8},     // mostly padding
                      Param{8, 8, 8},     // single tile
                      Param{5, 3, 1},     // 1x1 tiles
                      Param{64, 48, 16}));

TEST(TiledLayout, VoxelsWithinATileAreContiguous) {
  const TiledLayout lay(16, 16, 4);
  // Fig. 3B: the tile's voxels occupy one contiguous block, row-major
  // within the tile (the zig-zag path).
  const std::uint32_t base = lay.index(4, 4);  // origin of tile (1,1)
  EXPECT_EQ(lay.index(5, 4), base + 1);
  EXPECT_EQ(lay.index(4, 5), base + 4);
  EXPECT_EQ(lay.index(7, 7), base + 15);
}

TEST(TiledLayout, BorderTiles) {
  const TiledLayout lay(32, 32, 8);  // 4x4 tiles
  int border = 0;
  for (std::int32_t t = 0; t < lay.num_tiles(); ++t) {
    border += lay.is_border_tile(t);
  }
  EXPECT_EQ(border, 12);  // all but the inner 2x2
  EXPECT_TRUE(lay.is_border_tile(0));
  EXPECT_FALSE(lay.is_border_tile(5));  // tile (1,1)
}

TEST(TiledLayout, SizeAccounting) {
  const TiledLayout lay(17, 13, 4);  // 5x4 tiles of 16 slots + ghosts
  EXPECT_EQ(lay.tiles_x(), 5);
  EXPECT_EQ(lay.tiles_y(), 4);
  // pad_stride(4*4) == 16: a 4-tile's stride needs no padding.
  EXPECT_EQ(lay.tile_stride(), 16u);
  EXPECT_EQ(lay.interior_slots(), 5u * 4u * 16u);
  EXPECT_EQ(lay.size(), lay.interior_slots() + 2u * 13u + 2u * 17u);
}

TEST(TiledLayout, TileStridePadsToCacheLine) {
  // Tile sides whose slot count is not a multiple of the 16-float cache
  // line pad up to the next multiple (util::pad_stride).
  EXPECT_EQ(TiledLayout(20, 20, 5).tile_stride(), 32u);  // 25 -> 32
  EXPECT_EQ(TiledLayout(21, 21, 7).tile_stride(), 64u);  // 49 -> 64
  EXPECT_EQ(TiledLayout(5, 3, 1).tile_stride(), 16u);    // 1 -> 16
  EXPECT_EQ(TiledLayout(16, 16, 8).tile_stride(), 64u);  // 64 -> 64 (exact)
}

TEST(TiledLayout, PaddingSlotsMapToSentinel) {
  // Stride-padding slots are storage, not voxels: slot_to_xy must report
  // the out-of-range sentinel (w, h) so sweeps skip them.
  const TiledLayout lay(20, 20, 5);  // slots_per_tile 25, stride 32
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(lay.num_tiles());
       ++t) {
    for (std::uint32_t in = 25; in < 32; ++in) {
      std::int32_t x, y;
      lay.slot_to_xy(t * lay.tile_stride() + in, x, y);
      EXPECT_EQ(x, 20);
      EXPECT_EQ(y, 20);
    }
  }
}

TEST(TiledLayout, InvalidConfigsThrow) {
  EXPECT_THROW(TiledLayout(0, 4, 2), Error);
  EXPECT_THROW(TiledLayout(4, 4, 0), Error);
  EXPECT_THROW(TiledLayout(64, 64, 33), Error);  // block-per-tile limit
}

TEST(TiledLayout, OversizedLayoutThrows) {
  // 70000^2 voxels in 32-tiles: 2188^2 tiles x 1024 slots > 2^32, which
  // would silently wrap interior_slots()/size() in 32-bit slot arithmetic.
  EXPECT_THROW(TiledLayout(70000, 70000, 32), Error);
  // The largest sizes that still fit are accepted, with exact accounting:
  // 2047 x 2047 tiles of 1024 slots plus the ghost strips stays below 2^32.
  const TiledLayout big(2047 * 32, 2047 * 32, 32);
  EXPECT_EQ(big.size(), 2047u * 2047u * 1024u + 4u * 2047u * 32u);
  EXPECT_THROW(TiledLayout(2048 * 32, 2048 * 32, 32), Error);
  // The 64-bit check itself must not wrap: 2^62 one-voxel tiles.
  EXPECT_THROW(TiledLayout(0x7FFFFFFF, 0x7FFFFFFF, 1), Error);
}

// Callers take the remainder as n - div(n) * d, so both are checked.
TEST(Reciprocal, MatchesHardwareDivisionForEveryDivisorUpTo1024) {
  std::mt19937_64 gen(20240614);
  std::uniform_int_distribution<std::uint32_t> any;
  for (std::uint32_t d = 1; d <= 1024; ++d) {
    const Reciprocal r(d);
    ASSERT_EQ(r.divisor(), d);
    std::vector<std::uint32_t> nums = {0u, 1u, d - 1, d, d + 1, 0xFFFFFFFFu};
    for (int k = 0; k < 64; ++k) nums.push_back(any(gen));
    for (const std::uint32_t n : nums) {
      ASSERT_EQ(r.div(n), n / d) << n << " / " << d;
      ASSERT_EQ(n - r.div(n) * d, n % d) << n << " % " << d;
    }
  }
}

TEST(Reciprocal, LargestDivisorsStayExact) {
  for (const std::uint32_t d :
       {0x7FFFFFFFu, 0x80000000u, 0x40000001u, 65537u, 1u}) {
    const Reciprocal r(d);
    for (const std::uint32_t n :
         {0u, 1u, d - 1, d, d + 1, 2 * d - 1, 0xFFFFFFFEu, 0xFFFFFFFFu}) {
      ASSERT_EQ(r.div(n), n / d) << n << " / " << d;
      ASSERT_EQ(n - r.div(n) * d, n % d) << n << " % " << d;
    }
  }
  EXPECT_THROW(Reciprocal(0), Error);
  EXPECT_THROW(Reciprocal(0x80000001u), Error);
}

TEST(TiledLayout, EverySlotRoundTripsOnRaggedLayouts) {
  // Every interior slot of every (w, h, tile) combination maps to a voxel
  // that index()es back to it, or to padding: an edge tile's out-of-domain
  // voxel, or the stride pad, which must return the (w, h) sentinel.
  for (const std::int32_t w : {1, 7, 37, 64}) {
    for (const std::int32_t h : {1, 7, 37, 64}) {
      for (std::int32_t tile = 1; tile <= 32; ++tile) {
        const TiledLayout lay(w, h, tile);
        const std::uint32_t ts = lay.tile_stride();
        const auto spt = static_cast<std::uint32_t>(lay.slots_per_tile());
        std::int64_t voxels = 0;
        for (std::uint32_t s = 0; s < lay.interior_slots(); ++s) {
          std::int32_t x, y;
          lay.slot_to_xy(s, x, y);
          if (s % ts >= spt) {
            ASSERT_EQ(x, w) << "stride pad " << s << " of " << w << "x" << h
                            << " tile " << tile;
            ASSERT_EQ(y, h);
            continue;
          }
          ASSERT_EQ(static_cast<std::int32_t>(s / ts),
                    (y / tile) * lay.tiles_x() + x / tile);
          if (x >= w || y >= h) continue;  // edge-tile padding voxel
          ASSERT_EQ(lay.index(x, y), s) << x << "," << y << " of " << w
                                        << "x" << h << " tile " << tile;
          ++voxels;
        }
        ASSERT_EQ(voxels, static_cast<std::int64_t>(w) * h);
      }
    }
  }
}

}  // namespace
}  // namespace simcov::gpu
