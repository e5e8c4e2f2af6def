// Internal feature-computation machinery shared between compute_features
// (features.cpp) and the kernel's fused pass (kernel.cpp). Not part of the
// public haralick API; include features.hpp instead.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "haralick/features.hpp"

namespace h4d::haralick::detail {

inline constexpr double kEps = 1e-12;

inline double xlogx(double p) { return p > 0.0 ? p * std::log(p) : 0.0; }

/// Which intermediate quantities a feature selection requires.
struct Needs {
  bool cell_asm = false;      // sum p^2
  bool cell_ixj = false;      // sum i*j*p
  bool cell_idm = false;      // sum p / (1 + (i-j)^2)
  bool cell_entropy = false;  // -sum p log p
  bool marg_sum = false;      // p_{x+y}
  bool marg_diff = false;     // p_{x-y}
  int cell_terms = 0;         // per-cell multiply-accumulate terms (cost model)
};

Needs analyse(FeatureSet set);

/// Everything gathered from the cell pass, finalized into features below.
struct Gathered {
  int ng = 0;
  std::vector<double> px;     // marginal; == py by symmetry
  std::vector<double> psum;   // p_{x+y}, indices 0 .. 2Ng-2
  std::vector<double> pdiff;  // p_{|x-y|}, indices 0 .. Ng-1
  double asm_sum = 0.0;
  double ixj = 0.0;
  double idm = 0.0;
  double entropy = 0.0;  // HXY

  /// Zero every accumulator for `num_levels`, reusing buffer capacity.
  void reset(int num_levels);
};

/// Credit `wc` with one feature pass over an Ng-level matrix whose non-zero
/// upper triangle holds `entries` entries standing for `cells` full-matrix
/// cells, in the reference units of `repr` and `zeros` (the units the
/// simulator is calibrated in): a full pass scans Ng^2 cells and computes
/// the non-zero ones (SkipZeros) or all of them (VisitAll); a sparse pass
/// scans its entries and computes the cells they stand for (`zeros` does not
/// apply). f14's eigenproblem is credited separately, by finalize.
void credit_feature_pass(WorkCounters& wc, Representation repr, ZeroPolicy zeros, int ng,
                         std::int64_t entries, std::int64_t cells, FeatureSet set);

/// The feature pass behind every production entry point: reset `acc`, sweep
/// `entries` (the non-zero upper triangle of an Ng-level matrix with `total`
/// observations, row-major, i <= j) into it, credit `wc` as
/// credit_feature_pass(repr, zeros) and finalize.
FeatureVector features_from_entries(std::span<const SparseEntry> entries, int ng,
                                    std::int64_t total, FeatureSet set, Gathered& acc,
                                    WorkCounters* wc, Representation repr, ZeroPolicy zeros);

/// Turn the gathered sums into the selected features. `entries` and `total`
/// describe the matrix as in features_from_entries; only the maximal
/// correlation coefficient (f14) reads them.
FeatureVector finalize(const Gathered& g, FeatureSet set, std::span<const SparseEntry> entries,
                       std::int64_t total, WorkCounters* wc);

}  // namespace h4d::haralick::detail
