#include "nd/chunking.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "nd/raster.hpp"

namespace h4d {
namespace {

TEST(ChunkOverlap, IsRoiMinusOne) {
  EXPECT_EQ(chunk_overlap({7, 7, 3, 3}), Vec4(6, 6, 2, 2));
  EXPECT_EQ(chunk_overlap({1, 1, 1, 1}), Vec4(0, 0, 0, 0));
}

TEST(RoiOrigins, CountsAndRegion) {
  const Vec4 dims{10, 10, 4, 4};
  const Vec4 roi{3, 3, 2, 2};
  const Region4 r = roi_origin_region(dims, roi);
  EXPECT_EQ(r.origin, Vec4(0, 0, 0, 0));
  EXPECT_EQ(r.size, Vec4(8, 8, 3, 3));
  EXPECT_EQ(num_roi_origins(dims, roi), 8 * 8 * 3 * 3);
}

TEST(RoiOrigins, RoiEqualToVolumeHasOneOrigin) {
  EXPECT_EQ(num_roi_origins({5, 5, 5, 5}, {5, 5, 5, 5}), 1);
}

TEST(PartitionOverlapping, SingleChunkWhenChunkCoversVolume) {
  const auto chunks = partition_overlapping({8, 8, 4, 4}, {8, 8, 4, 4}, {3, 3, 2, 2});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].region, Region4::whole({8, 8, 4, 4}));
  EXPECT_EQ(chunks[0].owned_origins, roi_origin_region({8, 8, 4, 4}, {3, 3, 2, 2}));
}

TEST(PartitionOverlapping, Rejections) {
  EXPECT_THROW(partition_overlapping({4, 4, 4, 4}, {4, 4, 4, 4}, {5, 4, 4, 4}),
               std::invalid_argument);  // roi > dims
  EXPECT_THROW(partition_overlapping({8, 8, 8, 8}, {2, 8, 8, 8}, {3, 3, 3, 3}),
               std::invalid_argument);  // chunk < roi
  EXPECT_THROW(partition_overlapping({8, 8, 8, 0}, {4, 4, 4, 4}, {2, 2, 2, 2}),
               std::invalid_argument);  // bad dims
}

// Property: owned origin ranges tile the full ROI origin space exactly once,
// and every owned ROI fits inside its chunk's region.
void check_partition(const Vec4& dims, const Vec4& chunk_dims, const Vec4& roi) {
  const auto chunks = partition_overlapping(dims, chunk_dims, roi);
  std::map<Vec4, int, Vec4Less> seen;
  for (const Chunk& c : chunks) {
    EXPECT_TRUE(Region4::whole(dims).contains(c.region)) << c.region.str();
    for (const Vec4& o : raster(c.owned_origins)) {
      seen[o]++;
      EXPECT_TRUE(c.region.contains(Region4{o, roi}))
          << "chunk " << c.region.str() << " origin " << o.str();
    }
  }
  const Region4 all = roi_origin_region(dims, roi);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), all.volume());
  for (const auto& [o, n] : seen) {
    EXPECT_EQ(n, 1) << "origin " << o.str() << " owned by " << n << " chunks";
    EXPECT_TRUE(all.contains(o));
  }
}

TEST(PartitionOverlapping, TilesOriginsExactly_Even) {
  check_partition({16, 16, 8, 8}, {8, 8, 4, 4}, {3, 3, 2, 2});
}

TEST(PartitionOverlapping, TilesOriginsExactly_Ragged) {
  check_partition({17, 13, 7, 5}, {8, 6, 4, 3}, {3, 2, 2, 2});
}

TEST(PartitionOverlapping, TilesOriginsExactly_RoiOne) {
  check_partition({9, 9, 3, 3}, {4, 4, 2, 2}, {1, 1, 1, 1});
}

TEST(PartitionOverlapping, TilesOriginsExactly_ChunkEqualsRoi) {
  // step = 1 per dim: one chunk per origin.
  const Vec4 dims{5, 4, 3, 3};
  const Vec4 roi{2, 2, 2, 2};
  check_partition(dims, roi, roi);
  const auto chunks = partition_overlapping(dims, roi, roi);
  EXPECT_EQ(static_cast<std::int64_t>(chunks.size()), num_roi_origins(dims, roi));
}

TEST(PartitionOverlapping, AdjacentChunksOverlapByRoiMinusOne) {
  const Vec4 roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping({20, 8, 4, 4}, {8, 8, 4, 4}, roi);
  // Chunks along x: origins 0, 6, 12 (step = 8-3+1 = 6).
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].region.origin.x(), 0);
  EXPECT_EQ(chunks[1].region.origin.x(), 6);
  const std::int64_t overlap =
      chunks[0].region.end().x() - chunks[1].region.origin.x();
  EXPECT_EQ(overlap, roi.x() - 1);
}

TEST(PartitionOverlapping, IdsAreSequentialRasterOrder) {
  const auto chunks = partition_overlapping({16, 16, 4, 4}, {8, 8, 4, 4}, {3, 3, 2, 2});
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].id, static_cast<std::int64_t>(i));
  }
}

// The fixed-stride partition the even split replaced: chunk g owns origins
// from g * step, and the last chunk per dimension owns the remainder.
std::vector<Chunk> fixed_stride_partition(const Vec4& dims, const Vec4& chunk_dims,
                                          const Vec4& roi) {
  const Region4 origins = roi_origin_region(dims, roi);
  Vec4 step, grid;
  for (int d = 0; d < kDims; ++d) {
    step[d] = chunk_dims[d] - roi[d] + 1;
    grid[d] = (origins.size[d] + step[d] - 1) / step[d];
  }
  std::vector<Chunk> chunks;
  for (const Vec4& g : raster(Region4::whole(grid))) {
    Chunk c;
    c.id = static_cast<std::int64_t>(chunks.size());
    c.grid = g;
    for (int d = 0; d < kDims; ++d) {
      c.owned_origins.origin[d] = g[d] * step[d];
      c.owned_origins.size[d] = std::min(step[d], origins.size[d] - g[d] * step[d]);
      c.region.origin[d] = c.owned_origins.origin[d];
      c.region.size[d] = c.owned_origins.size[d] + roi[d] - 1;
    }
    chunks.push_back(c);
  }
  return chunks;
}

struct Shape {
  Vec4 dims, chunk, roi;
};

/// Random feasible (dims, chunk, roi) triples: small enough to enumerate
/// every origin, with ragged and evenly dividing strides both common.
std::vector<Shape> random_shapes(std::uint32_t seed, int count) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  std::vector<Shape> shapes;
  for (int i = 0; i < count; ++i) {
    Shape s;
    for (int d = 0; d < kDims; ++d) {
      s.roi[d] = pick(1, 4);
      s.dims[d] = s.roi[d] + pick(0, d < 2 ? 20 : 6);
      s.chunk[d] = pick(s.roi[d], s.dims[d] + 2);
    }
    shapes.push_back(s);
  }
  return shapes;
}

TEST(PartitionOverlapping, EvenSplitPropertiesOnRandomShapes) {
  for (const Shape& s : random_shapes(20261018, 200)) {
    SCOPED_TRACE("dims " + s.dims.str() + " chunk " + s.chunk.str() + " roi " + s.roi.str());
    const auto chunks = partition_overlapping(s.dims, s.chunk, s.roi);
    // Same chunk count as the fixed stride: --chunk keeps its meaning.
    ASSERT_EQ(chunks.size(), fixed_stride_partition(s.dims, s.chunk, s.roi).size());
    for (int d = 0; d < kDims; ++d) {
      std::int64_t lo = s.dims[d], hi = 0;
      for (const Chunk& c : chunks) {
        lo = std::min(lo, c.owned_origins.size[d]);
        hi = std::max(hi, c.owned_origins.size[d]);
      }
      EXPECT_LE(hi - lo, 1) << "dim " << d;
      EXPECT_LE(hi, s.chunk[d] - s.roi[d] + 1) << "dim " << d;
    }
    for (const Chunk& c : chunks) {
      EXPECT_TRUE(c.region.size.all_le(s.chunk)) << c.region.str();
    }
    check_partition(s.dims, s.chunk, s.roi);  // disjoint, covering, ROIs fit
  }
}

TEST(PartitionOverlapping, IdenticalToFixedStrideWhenStrideDivides) {
  // Shapes built so the stride divides the origins in every dimension.
  std::mt19937 rng(7);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int i = 0; i < 200; ++i) {
    Shape s;
    for (int d = 0; d < kDims; ++d) {
      s.roi[d] = pick(1, 4);
      const std::int64_t step = pick(1, d < 2 ? 8 : 3);
      s.chunk[d] = step + s.roi[d] - 1;
      s.dims[d] = pick(1, 4) * step + s.roi[d] - 1;
    }
    SCOPED_TRACE("dims " + s.dims.str() + " chunk " + s.chunk.str() + " roi " + s.roi.str());
    const auto even = partition_overlapping(s.dims, s.chunk, s.roi);
    const auto fixed = fixed_stride_partition(s.dims, s.chunk, s.roi);
    ASSERT_EQ(even.size(), fixed.size());
    for (std::size_t c = 0; c < even.size(); ++c) {
      EXPECT_EQ(even[c].id, fixed[c].id);
      EXPECT_EQ(even[c].grid, fixed[c].grid);
      EXPECT_EQ(even[c].region, fixed[c].region);
      EXPECT_EQ(even[c].owned_origins, fixed[c].owned_origins);
    }
  }
  // The benchmark's evenly dividing grids, named.
  for (const Shape& s : {Shape{{48, 48, 8, 8}, {27, 27, 5, 5}, {7, 7, 3, 3}},
                         Shape{{128, 128, 16, 16}, {16, 16, 4, 4}, {3, 3, 3, 3}}}) {
    const auto even = partition_overlapping(s.dims, s.chunk, s.roi);
    const auto fixed = fixed_stride_partition(s.dims, s.chunk, s.roi);
    ASSERT_EQ(even.size(), fixed.size());
    for (std::size_t i = 0; i < even.size(); ++i) {
      EXPECT_EQ(even[i].region, fixed[i].region);
      EXPECT_EQ(even[i].owned_origins, fixed[i].owned_origins);
    }
  }
}

TEST(PartitionOverlapping, RaggedGridSplitsEvenly) {
  // 42 origins per spatial dim at stride 26: two chunks of 21, not 26 + 16.
  const auto chunks = partition_overlapping({48, 48, 8, 8}, {32, 32, 6, 6}, {7, 7, 3, 3});
  ASSERT_EQ(chunks.size(), 16u);
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.owned_origins.size, Vec4(21, 21, 3, 3));
    EXPECT_EQ(c.region.size, Vec4(27, 27, 5, 5));
  }
}

TEST(ChunkGrid, ChunkOfNamesTheOwningChunk) {
  for (const Shape& s : random_shapes(99, 200)) {
    SCOPED_TRACE("dims " + s.dims.str() + " chunk " + s.chunk.str() + " roi " + s.roi.str());
    const ChunkGrid grid(s.dims, s.chunk, s.roi);
    const auto chunks = partition_overlapping(s.dims, s.chunk, s.roi);
    ASSERT_EQ(grid.shape().volume(), static_cast<std::int64_t>(chunks.size()));
    for (const Chunk& c : chunks) {
      for (const Vec4& o : raster(c.owned_origins)) {
        ASSERT_EQ(grid.chunk_of(o), c.id) << "origin " << o.str();
      }
    }
  }
}

TEST(PartitionPlain, CoversVolumeDisjointly) {
  const Vec4 dims{10, 7, 3, 5};
  const auto blocks = partition_plain(dims, {4, 4, 2, 2});
  std::int64_t total = 0;
  for (const Region4& b : blocks) {
    EXPECT_TRUE(Region4::whole(dims).contains(b));
    total += b.volume();
    for (const Region4& o : blocks) {
      if (&o != &b) {
        EXPECT_FALSE(b.intersects(o)) << b.str() << " vs " << o.str();
      }
    }
  }
  EXPECT_EQ(total, dims.volume());
}

TEST(PartitionPlain, SliceGranularity) {
  // RFR->IIC chunks of one whole slice each: dims (X, Y, 1, 1).
  const Vec4 dims{16, 16, 4, 3};
  const auto blocks = partition_plain(dims, {16, 16, 1, 1});
  EXPECT_EQ(blocks.size(), 12u);  // 4 slices x 3 timesteps
}

}  // namespace
}  // namespace h4d
