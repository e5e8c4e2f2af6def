#include "haralick/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <random>

namespace h4d::haralick {
namespace {

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

EngineConfig config() {
  EngineConfig cfg;
  cfg.roi_dims = {4, 4, 3, 3};
  cfg.num_levels = 16;
  cfg.features = FeatureSet::paper_eval();
  return cfg;
}

void expect_blocks_equal(const std::vector<FeatureBlock>& a,
                         const std::vector<FeatureBlock>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feature, b[i].feature);
    EXPECT_EQ(a[i].origins, b[i].origins);
    ASSERT_EQ(a[i].values.size(), b[i].values.size());
    for (std::size_t j = 0; j < a[i].values.size(); ++j) {
      EXPECT_FLOAT_EQ(a[i].values[j], b[i].values[j])
          << feature_name(a[i].feature) << " @" << j;
    }
  }
}

class ParallelThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelThreads, MatchesSequentialExactly) {
  const auto v = random_volume({14, 12, 6, 5}, 16, 1);
  const EngineConfig cfg = config();
  const auto seq = analyze_volume(v, cfg);
  ParallelOptions opt;
  opt.threads = GetParam();
  const auto par = analyze_volume_parallel(v, cfg, opt);
  expect_blocks_equal(seq, par);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelThreads, ::testing::Values(1u, 2u, 4u, 8u));

TEST(ParallelEngine, ExplicitChunkDimsRespected) {
  const auto v = random_volume({14, 12, 6, 5}, 16, 2);
  const EngineConfig cfg = config();
  ParallelOptions opt;
  opt.threads = 3;
  opt.chunk_dims = {7, 7, 4, 4};
  expect_blocks_equal(analyze_volume(v, cfg), analyze_volume_parallel(v, cfg, opt));
}

TEST(ParallelEngine, SparseRepresentationComposes) {
  const auto v = random_volume({12, 12, 5, 4}, 16, 4);
  EngineConfig cfg = config();
  cfg.representation = Representation::Sparse;
  ParallelOptions opt;
  opt.threads = 4;
  const auto seq = analyze_volume(v, config());
  const auto par = analyze_volume_parallel(v, cfg, opt);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    for (std::size_t j = 0; j < seq[i].values.size(); ++j) {
      EXPECT_NEAR(seq[i].values[j], par[i].values[j],
                  1e-5f * std::max(1.0f, std::abs(seq[i].values[j])));
    }
  }
}

TEST(ParallelEngine, WorkCountersSummed) {
  const auto v = random_volume({12, 12, 5, 4}, 16, 5);
  const EngineConfig cfg = config();
  WorkCounters seq{}, par{};
  analyze_volume(v, cfg, &seq);
  ParallelOptions opt;
  opt.threads = 4;
  analyze_volume_parallel(v, cfg, opt, &par);
  EXPECT_EQ(par.matrices_built, seq.matrices_built);
  // Chunk overlap means the parallel path may do slightly more GLCM work
  // only if chunks were smaller than the volume... pair updates are
  // per-ROI, so they match exactly.
  EXPECT_EQ(par.glcm_pair_updates, seq.glcm_pair_updates);
}

TEST(ParallelEngine, OversizeRoiRejected) {
  const auto v = random_volume({6, 6, 4, 4}, 16, 6);
  EngineConfig cfg = config();
  cfg.roi_dims = {8, 4, 3, 3};
  EXPECT_THROW(analyze_volume_parallel(v, cfg), std::invalid_argument);
}

TEST(ParallelEngine, DefaultsWork) {
  const auto v = random_volume({10, 10, 5, 4}, 16, 7);
  const auto blocks = analyze_volume_parallel(v, config());
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].origins, roi_origin_region(v.dims(), config().roi_dims));
}

}  // namespace
}  // namespace h4d::haralick
