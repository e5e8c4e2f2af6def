#include "nd/chunking.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace h4d {

Vec4 chunk_overlap(const Vec4& roi_dims) {
  return roi_dims - Vec4{1, 1, 1, 1};
}

Region4 roi_origin_region(const Vec4& dims, const Vec4& roi_dims) {
  Region4 r;
  r.origin = Vec4{};
  r.size = dims - roi_dims + Vec4{1, 1, 1, 1};
  return r;
}

std::int64_t num_roi_origins(const Vec4& dims, const Vec4& roi_dims) {
  const Region4 r = roi_origin_region(dims, roi_dims);
  return r.empty() ? 0 : r.volume();
}

ChunkGrid::ChunkGrid(const Vec4& dims, const Vec4& chunk_dims, const Vec4& roi_dims) {
  if (!dims.all_positive() || !chunk_dims.all_positive() || !roi_dims.all_positive()) {
    throw std::invalid_argument("partition_overlapping: all extents must be positive");
  }
  if (!roi_dims.all_le(dims)) {
    throw std::invalid_argument("partition_overlapping: roi " + roi_dims.str() +
                                " exceeds volume " + dims.str());
  }
  if (!roi_dims.all_le(chunk_dims)) {
    throw std::invalid_argument("partition_overlapping: chunk " + chunk_dims.str() +
                                " smaller than roi " + roi_dims.str());
  }
  const Region4 origins = roi_origin_region(dims, roi_dims);
  for (int d = 0; d < kDims; ++d) {
    // A chunk of `chunk_dims` holds at most `step` ROI origins per dimension.
    const std::int64_t step = chunk_dims[d] - roi_dims[d] + 1;
    shape_[d] = (origins.size[d] + step - 1) / step;
    base_[d] = origins.size[d] / shape_[d];
    extra_[d] = origins.size[d] % shape_[d];
  }
}

Region4 ChunkGrid::owned_origins(const Vec4& g) const {
  Region4 r;
  for (int d = 0; d < kDims; ++d) {
    r.origin[d] = g[d] * base_[d] + std::min(g[d], extra_[d]);
    r.size[d] = base_[d] + (g[d] < extra_[d] ? 1 : 0);
  }
  return r;
}

std::int64_t ChunkGrid::chunk_of(const Vec4& origin) const {
  std::int64_t id = 0;
  for (int d = kDims - 1; d >= 0; --d) {
    // The first extra_ chunks own base_ + 1 origins each, the rest base_.
    const std::int64_t wide = extra_[d] * (base_[d] + 1);
    const std::int64_t g = origin[d] < wide
                               ? origin[d] / (base_[d] + 1)
                               : extra_[d] + (origin[d] - wide) / base_[d];
    id = id * shape_[d] + g;
  }
  return id;
}

std::vector<Chunk> partition_overlapping(const Vec4& dims, const Vec4& chunk_dims,
                                         const Vec4& roi_dims) {
  const ChunkGrid grid(dims, chunk_dims, roi_dims);
  const Vec4& shape = grid.shape();
  std::vector<Chunk> chunks;
  chunks.reserve(static_cast<std::size_t>(shape.volume()));
  std::int64_t id = 0;
  Vec4 g;
  for (g[3] = 0; g[3] < shape[3]; ++g[3]) {
    for (g[2] = 0; g[2] < shape[2]; ++g[2]) {
      for (g[1] = 0; g[1] < shape[1]; ++g[1]) {
        for (g[0] = 0; g[0] < shape[0]; ++g[0]) {
          Chunk c;
          c.id = id++;
          c.grid = g;
          c.owned_origins = grid.owned_origins(g);
          // Exactly the data the owned ROIs cover: the last owned origin's
          // ROI ends roi - 1 past it.
          c.region = Region4{c.owned_origins.origin,
                             c.owned_origins.size + roi_dims - Vec4{1, 1, 1, 1}};
          chunks.push_back(c);
        }
      }
    }
  }
  return chunks;
}

std::vector<Region4> partition_plain(const Vec4& dims, const Vec4& block_dims) {
  if (!dims.all_positive() || !block_dims.all_positive()) {
    throw std::invalid_argument("partition_plain: all extents must be positive");
  }
  Vec4 grid;
  for (int d = 0; d < kDims; ++d) {
    grid[d] = (dims[d] + block_dims[d] - 1) / block_dims[d];
  }
  std::vector<Region4> blocks;
  blocks.reserve(static_cast<std::size_t>(grid.volume()));
  Vec4 g;
  for (g[3] = 0; g[3] < grid[3]; ++g[3]) {
    for (g[2] = 0; g[2] < grid[2]; ++g[2]) {
      for (g[1] = 0; g[1] < grid[1]; ++g[1]) {
        for (g[0] = 0; g[0] < grid[0]; ++g[0]) {
          Region4 r;
          for (int d = 0; d < kDims; ++d) {
            r.origin[d] = g[d] * block_dims[d];
            r.size[d] = std::min(block_dims[d], dims[d] - r.origin[d]);
          }
          blocks.push_back(r);
        }
      }
    }
  }
  return blocks;
}

}  // namespace h4d
