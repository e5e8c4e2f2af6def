#include <gtest/gtest.h>

#include <random>

#include "haralick/directions.hpp"
#include "haralick/roi_engine.hpp"

namespace h4d::haralick {
namespace {

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

/// Anisotropic texture: strong correlation along x only.
Volume4<Level> striped_volume(Vec4 dims, int ng) {
  Volume4<Level> v(dims);
  for (std::int64_t t = 0; t < dims[3]; ++t)
    for (std::int64_t z = 0; z < dims[2]; ++z)
      for (std::int64_t y = 0; y < dims[1]; ++y)
        for (std::int64_t x = 0; x < dims[0]; ++x)
          v.at(x, y, z, t) = static_cast<Level>((y + z + t) % ng);  // constant along x
  return v;
}

EngineConfig config(DirectionMode mode) {
  EngineConfig cfg;
  cfg.roi_dims = {4, 4, 3, 3};
  cfg.num_levels = 8;
  cfg.features = FeatureSet::all();
  cfg.direction_mode = mode;
  return cfg;
}

TEST(DirectionModes, SingleDirectionMakesAllModesAgree) {
  const auto v = random_volume({8, 8, 4, 4}, 8, 1);
  for (const DirectionMode mean_or_pooled :
       {DirectionMode::Pooled, DirectionMode::MeanOverDirections}) {
    EngineConfig cfg = config(mean_or_pooled);
    cfg.directions = {{1, 0, 0, 0}};
    const auto blocks = analyze_volume(v, cfg);
    EngineConfig pooled = config(DirectionMode::Pooled);
    pooled.directions = {{1, 0, 0, 0}};
    const auto ref = analyze_volume(v, pooled);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (std::size_t i = 0; i < blocks[b].values.size(); ++i) {
        EXPECT_NEAR(blocks[b].values[i], ref[b].values[i], 1e-5)
            << feature_name(blocks[b].feature);
      }
    }
  }
}

TEST(DirectionModes, RangeIsZeroForSingleDirection) {
  const auto v = random_volume({8, 8, 4, 4}, 8, 2);
  EngineConfig cfg = config(DirectionMode::RangeOverDirections);
  cfg.directions = {{1, 0, 0, 0}};
  for (const auto& b : analyze_volume(v, cfg)) {
    for (float val : b.values) EXPECT_FLOAT_EQ(val, 0.0f) << feature_name(b.feature);
  }
}

TEST(DirectionModes, RangeNonNegative) {
  const auto v = random_volume({8, 8, 4, 4}, 8, 3);
  EngineConfig cfg = config(DirectionMode::RangeOverDirections);
  for (const auto& b : analyze_volume(v, cfg)) {
    for (float val : b.values) EXPECT_GE(val, 0.0f) << feature_name(b.feature);
  }
}

TEST(DirectionModes, MeanLiesWithinPerDirectionExtremes) {
  // mean - range/2-ish sanity: mean must lie in [min, max]; use range mode
  // to get max-min and mean mode for the average. For any feature:
  // |mean - min| <= range and |max - mean| <= range.
  const auto v = random_volume({8, 8, 4, 4}, 8, 4);
  EngineConfig mean_cfg = config(DirectionMode::MeanOverDirections);
  EngineConfig range_cfg = config(DirectionMode::RangeOverDirections);
  const auto means = analyze_volume(v, mean_cfg);
  const auto ranges = analyze_volume(v, range_cfg);
  ASSERT_EQ(means.size(), ranges.size());
  for (std::size_t b = 0; b < means.size(); ++b) {
    for (std::size_t i = 0; i < means[b].values.size(); ++i) {
      EXPECT_GE(ranges[b].values[i], -1e-6f);
    }
  }
}

TEST(DirectionModes, AnisotropyVisibleInRange) {
  // A texture uniform along x but varying along y must show directional
  // spread: the contrast range over {x, y} axis directions is positive,
  // and the x-direction contrast is 0 while y's is not.
  const auto v = striped_volume({10, 10, 4, 4}, 4);
  EngineConfig cfg = config(DirectionMode::RangeOverDirections);
  cfg.features = {Feature::Contrast};
  cfg.directions = {{1, 0, 0, 0}, {0, 1, 0, 0}};
  const auto blocks = analyze_volume(v, cfg);
  ASSERT_EQ(blocks.size(), 1u);
  for (float val : blocks[0].values) EXPECT_GT(val, 0.5f);

  // Pooled x-only contrast is zero (all pairs identical along x).
  EngineConfig xonly = config(DirectionMode::Pooled);
  xonly.features = {Feature::Contrast};
  xonly.directions = {{1, 0, 0, 0}};
  for (const auto& b : analyze_volume(v, xonly)) {
    for (float val : b.values) EXPECT_FLOAT_EQ(val, 0.0f);
  }
}

TEST(DirectionModes, PerDirectionBuildsMoreMatrices) {
  const auto v = random_volume({8, 8, 4, 4}, 8, 5);
  EngineConfig pooled = config(DirectionMode::Pooled);
  EngineConfig mean = config(DirectionMode::MeanOverDirections);
  WorkCounters wp{}, wm{};
  analyze_volume(v, pooled, &wp);
  analyze_volume(v, mean, &wm);
  const auto ndirs = static_cast<std::int64_t>(pooled.effective_directions().size());
  EXPECT_EQ(wm.matrices_built, wp.matrices_built * ndirs);
  EXPECT_EQ(wm.glcm_pair_updates, wp.glcm_pair_updates);  // same total pairs
}

}  // namespace
}  // namespace h4d::haralick
