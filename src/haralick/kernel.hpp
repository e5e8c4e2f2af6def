// Cache-aware GLCM construction + fused feature kernels (the hot path).
//
// The reference path (Glcm::accumulate_reference + compute_features) pays
// four stride multiplies per voxel endpoint, two symmetric 32-bit table
// stores per pair, and several full Ng^2 rescans per ROI. This layer
// restructures that work without changing any result bit:
//
//   * construction walks the ROI anchor-major (each loaded anchor row feeds
//     every displacement vector) with per-row base pointers hoisted so the
//     x-inner loop is pure unit-stride pointer arithmetic;
//   * each pair costs a single increment — no symmetric double store and no
//     per-pair min/max: the (a, b) levels index a uint16_t hot tile in
//     encounter order, split across two banks (even/odd x) so consecutive
//     increments never form a store-to-load dependency chain. At the paper
//     configuration (Ng=32) both banks together are 4 KiB and L1-resident;
//     above Ng=64 a single bank halves the scattered footprint instead;
//   * the canonical upper triangle is recovered once at finalize, where the
//     fold reads tile(i,j) + tile(j,i) from both banks per cell — min/max
//     per cell instead of per pair — and reproduces the reference Glcm
//     exactly (off-diagonal cells get the pair count, diagonal cells twice
//     it). The fold zeroes the tile as it reads, so a reset never rescans;
//   * the loop is branch-free whenever the pairs accumulated since the last
//     reset cannot reach 65,536 (knowable up front from the ROI and
//     direction set); past that bound a checked variant spills any
//     saturating cell to a 32-bit side table;
//   * the feature pass reads the non-zero upper cells straight off the tile
//     into the canonical entry list (zeroing the tile as it goes) and runs
//     the one entry sweep of features.hpp on it — no dense fold and no Ng^2
//     rescan in SparseGlcm::from_dense, for either representation.
//
// Equivalence contract (property-tested in test_kernel.cpp): accumulate +
// fold is bit-identical to Glcm::accumulate_reference, and features_fused
// is bit-identical to SparseGlcm::from_dense + compute_features(sparse) —
// same entries, same sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick {

namespace detail {
struct Gathered;
}  // namespace detail

/// Reusable per-thread working state of the kernel: the two-bank uint16
/// co-occurrence tile, its 32-bit spill table, and the feature sweep's
/// marginal buffers. One instance per worker thread / filter copy; reused
/// across ROIs and chunks so the hot loop never allocates.
class KernelScratch {
 public:
  explicit KernelScratch(int num_levels = 2);
  KernelScratch(KernelScratch&&) noexcept;
  KernelScratch& operator=(KernelScratch&&) noexcept;
  ~KernelScratch();  // out of line: detail::Gathered is incomplete here

  int num_levels() const { return ng_; }

  /// Re-size for a different Ng (no-op when unchanged). Invalidates any
  /// un-finalized accumulation.
  void configure(int num_levels);

  /// Accumulate the co-occurrences of `roi` over `dirs` into the tile (one
  /// increment per pair, encounter order). The tile starts empty on the
  /// first call after configure()/finalize; successive calls keep
  /// accumulating. Returns the number of logical cell updates in reference
  /// units (2 per pair), for the cost model.
  std::int64_t accumulate(Vol4View<const Level> vol, const Region4& roi,
                          const std::vector<Vec4>& dirs);

  /// Fold the accumulated tile into `g` (adds to its current contents, like
  /// Glcm::accumulate) and reset the tile for the next ROI.
  /// `g.num_levels()` must equal num_levels().
  void finalize_add(Glcm& g);

  /// Fused feature pass: read the tile's non-zero upper cells into the
  /// entry list and sweep it — bit-identical to
  /// compute_features(SparseGlcm::from_dense(dense), set) on the dense
  /// matrix this tile folds to. Resets the tile for the next ROI.
  ///
  /// `wc` is credited as the reference path of `repr` and `zeros` would be:
  /// a Sparse pass adds the compression (Ng^2 modeled cells, entries
  /// emitted) to the sparse feature pass; a Full pass is charged as
  /// compute_features(dense, zeros). When `sparse_out` is non-null it
  /// receives the SparseGlcm read off the tile.
  FeatureVector features_fused(FeatureSet set, WorkCounters* wc = nullptr,
                               SparseGlcm* sparse_out = nullptr,
                               Representation repr = Representation::Sparse,
                               ZeroPolicy zeros = ZeroPolicy::SkipZeros);

  /// Total pair observations currently in the tile (2 per pair, matching
  /// Glcm::total()).
  std::int64_t total() const { return total_; }

  /// True when at least one uint16 cell saturated and spilled to the 32-bit
  /// side table since the last reset (exposed for tests).
  bool spilled() const { return !spill_cells_.empty(); }

  /// Discard any accumulated counts.
  void reset();

 private:
  std::uint32_t cell(int i, int j) const;  // folded upper-cell pair count
  void clear_side_state();                 // spills + counters (tile untouched)

  int ng_ = 0;
  std::int64_t total_ = 0;  // ordered pair observations (2 per pair)
  std::int64_t pairs_since_reset_ = 0;     // bound on any cell; picks the loop
  bool dual_bank_ = true;                  // two banks while they fit L1
  std::vector<std::uint16_t> tile_;        // Ng^2 bank(s), encounter order
  std::vector<std::uint32_t> spill_;       // 32-bit overflow, same layout
  std::vector<std::int32_t> spill_cells_;  // indices with non-zero spill_

  // Feature-pass buffers (owned here so workers reuse them across chunks).
  std::unique_ptr<detail::Gathered> gathered_;
  std::vector<SparseEntry> entries_;
};

}  // namespace h4d::haralick
