// The fourteen Haralick textural features (Haralick, Shanmugam & Dinstein,
// 1973), computed from a symmetric co-occurrence matrix.
//
// Every production entry point runs one scalar sweep over the canonical
// upper-triangle entry list (non-zero cells, i <= j, row-major), followed by
// one finalize step; they differ only in where the entries come from:
//
//   * KernelScratch::features_fused — read off the kernel's tile;
//   * compute_features(SparseGlcm)  — the stored entries;
//   * compute_features(Glcm, SkipZeros) — scanned out of the dense table.
//
// So every representation yields bit-identical values. compute_features(Glcm,
// VisitAll) keeps the textbook loop over all Ng^2 cells (the unoptimized
// baseline of paper Sec. 4.4.1 and the tests' oracle); it agrees to rounding.
// Full vs. sparse and VisitAll vs. SkipZeros remain as cost-model units:
// each pass is charged as the loop of its representation and zero policy
// would be.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick {

/// Haralick's f1..f14, in his numbering order.
enum class Feature : int {
  AngularSecondMoment = 0,  // f1
  Contrast,                 // f2
  Correlation,              // f3
  SumOfSquaresVariance,     // f4
  InverseDifferenceMoment,  // f5
  SumAverage,               // f6
  SumVariance,              // f7
  SumEntropy,               // f8
  Entropy,                  // f9
  DifferenceVariance,       // f10
  DifferenceEntropy,        // f11
  InfoMeasureCorrelation1,  // f12
  InfoMeasureCorrelation2,  // f13
  MaximalCorrelationCoeff,  // f14
};

inline constexpr int kNumFeatures = 14;

std::string_view feature_name(Feature f);
/// Short identifier usable in file names ("asm", "contrast", ...).
std::string_view feature_slug(Feature f);

/// Set of selected features, as a bitmask over Feature.
class FeatureSet {
 public:
  constexpr FeatureSet() = default;
  constexpr FeatureSet(std::initializer_list<Feature> fs) {
    for (Feature f : fs) set(f);
  }

  constexpr void set(Feature f) { mask_ |= (1u << static_cast<int>(f)); }
  constexpr bool has(Feature f) const { return (mask_ >> static_cast<int>(f)) & 1u; }
  constexpr int count() const { return __builtin_popcount(mask_); }
  constexpr std::uint32_t mask() const { return mask_; }
  static constexpr FeatureSet from_mask(std::uint32_t m) {
    FeatureSet s;
    s.mask_ = m & ((1u << kNumFeatures) - 1u);
    return s;
  }

  static constexpr FeatureSet all() { return from_mask((1u << kNumFeatures) - 1u); }

  /// The four most computation-expensive features used throughout the
  /// paper's evaluation (Sec. 5.1): ASM, Correlation, Sum of Squares, IDM.
  static constexpr FeatureSet paper_eval() {
    return FeatureSet{Feature::AngularSecondMoment, Feature::Correlation,
                      Feature::SumOfSquaresVariance, Feature::InverseDifferenceMoment};
  }

  friend constexpr bool operator==(const FeatureSet&, const FeatureSet&) = default;

 private:
  std::uint32_t mask_ = 0;
};

/// Result of a feature computation; unselected slots hold 0.
struct FeatureVector {
  std::array<double, kNumFeatures> value{};

  double operator[](Feature f) const { return value[static_cast<std::size_t>(f)]; }
  double& operator[](Feature f) { return value[static_cast<std::size_t>(f)]; }
};

/// How co-occurrence matrices are represented between construction and
/// feature evaluation (paper Sec. 4.4.1): the wire format between HCC and
/// HPC, and the units the cost model charges a feature pass in.
enum class Representation { Full, Sparse };

/// Zero-entry handling of a full-matrix feature pass.
enum class ZeroPolicy {
  VisitAll,   ///< touch every cell, zeros included (baseline)
  SkipZeros,  ///< compute only the non-zero cells (paper's optimization)
};

/// Full-matrix feature computation. SkipZeros runs the entry sweep on the
/// non-zero upper cells; VisitAll runs the every-cell textbook loop. `wc`,
/// when non-null, is credited Ng^2 cells scanned and the ops of the non-zero
/// cells (SkipZeros) or of every cell (VisitAll).
FeatureVector compute_features(const Glcm& g, FeatureSet set, ZeroPolicy policy,
                               WorkCounters* wc = nullptr);

/// Sparse feature computation: the entry sweep over the stored entries.
FeatureVector compute_features(const SparseGlcm& g, FeatureSet set, WorkCounters* wc = nullptr);

/// Credit `wc` with compressing a dense Ng-level matrix into `entries`
/// sparse entries: Ng^2 cells scanned, `entries` emitted.
void credit_compression(WorkCounters& wc, int ng, std::int64_t entries);

}  // namespace h4d::haralick
