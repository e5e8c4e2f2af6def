// Chunk partitioners for out-of-core processing.
//
// The texture pipeline retrieves data in 4D chunks rather than per-ROI so
// overlapped ROI data is read once (paper Sec. 4.4). Adjacent chunks overlap
// by (roi - 1) elements per dimension (paper Eqs. 1-2, generalized to 4D), so
// every ROI is fully contained in exactly one chunk, and each chunk "owns" a
// disjoint range of ROI origins. The chunk extent is an upper bound: a
// dimension's origins are split evenly over its chunks, so no chunk is left
// with only the remainder of a fixed stride.
#pragma once

#include <cstdint>
#include <vector>

#include "nd/region.hpp"
#include "nd/vec4.hpp"

namespace h4d {

/// One chunk of an overlapping partition.
struct Chunk {
  /// Sequential id, row-major over the chunk grid (x fastest).
  std::int64_t id = 0;
  /// Grid coordinate of this chunk.
  Vec4 grid;
  /// Data region the chunk covers (includes overlap with neighbours).
  Region4 region;
  /// ROI origins this chunk exclusively owns. Every ROI whose origin lies in
  /// `owned_origins` fits entirely inside `region`. Union over all chunks ==
  /// all valid ROI origins, pairwise disjoint.
  Region4 owned_origins;
};

/// Version of the origin-to-chunk assignment. Chunk ids name different
/// regions under different schemes, so checkpoint ownership hashes it:
/// 1 = fixed stride (the last chunk per dimension owned the remainder),
/// 2 = even split.
inline constexpr int kPartitionScheme = 2;

/// The chunk grid of an overlapping partition, and the one origin -> chunk
/// lookup every consumer of chunk ids shares.
///
/// Per dimension, the chunk count is the fixed-stride count
/// ceil(origins / (chunk - roi + 1)); the origins are then split evenly over
/// those chunks (the first `origins % count` chunks own one more), so owned
/// sizes differ by at most one and never exceed the stride. When the stride
/// divides the origins, this is exactly the fixed-stride partition.
///
/// Throws std::invalid_argument when roi or chunk sizes are infeasible
/// (roi > dims, chunk < roi, non-positive entries).
class ChunkGrid {
 public:
  ChunkGrid(const Vec4& dims, const Vec4& chunk_dims, const Vec4& roi_dims);

  /// Number of chunks per dimension.
  const Vec4& shape() const { return shape_; }
  /// ROI origins owned by the chunk at grid coordinate `g`.
  Region4 owned_origins(const Vec4& g) const;
  /// Id (row-major over the grid, x fastest) of the chunk owning `origin`.
  std::int64_t chunk_of(const Vec4& origin) const;

 private:
  Vec4 base_;   ///< origins / shape: what every chunk owns at least
  Vec4 extra_;  ///< origins % shape: chunks below this index own one more
  Vec4 shape_;
};

/// Overlapping chunk partition of a volume for a given ROI size, over the
/// grid of ChunkGrid: each chunk's region is exactly what its owned ROIs
/// cover, so it never exceeds `chunk_dims`.
///
/// Throws std::invalid_argument when roi or chunk sizes are infeasible
/// (roi > dims, chunk < roi, non-positive entries).
std::vector<Chunk> partition_overlapping(const Vec4& dims, const Vec4& chunk_dims,
                                         const Vec4& roi_dims);

/// Per-dimension overlap between adjacent chunks: roi - 1 (paper Eqs. 1-2).
Vec4 chunk_overlap(const Vec4& roi_dims);

/// Total number of valid ROI origins for a volume/ROI combination.
std::int64_t num_roi_origins(const Vec4& dims, const Vec4& roi_dims);

/// Region of all valid ROI origins: [0, dims - roi + 1).
Region4 roi_origin_region(const Vec4& dims, const Vec4& roi_dims);

/// Plain (non-overlapping) partition into blocks of at most `block_dims`,
/// used for I/O-granularity chunks (RFR->IIC).
std::vector<Region4> partition_plain(const Vec4& dims, const Vec4& block_dims);

}  // namespace h4d
