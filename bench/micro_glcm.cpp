// Micro-benchmark of the co-occurrence construction kernel (the HCC filter's
// inner loop): the cache-aware kernel (haralick/kernel.hpp) A/B'd against the
// reference dual-store loop, across ROI sizes and direction counts, measured
// for real on this machine.
//
// Two modes:
//   * default: google-benchmark tables (interactive exploration);
//   * --json FILE: the committed-baseline flow — times the labeled
//     configurations with the best-of-N harness in micro_common.hpp and
//     writes an h4d-bench-metrics-v1 document for tools/check_bench.py
//     (see BENCH_kernel.json and EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "haralick/directions.hpp"
#include "haralick/kernel.hpp"
#include "haralick/roi_engine.hpp"
#include "micro_common.hpp"

namespace {

using namespace h4d;
using haralick::ActiveDims;
using h4d::bench::mri_like;

void BM_GlcmAccumulate_Reference_AllDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::unique_directions(ActiveDims::all4());
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    g.accumulate_reference(v.view(), Region4{{2, 2, 2, 2}, roi}, dirs);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pair_updates_per_roi"] = static_cast<double>(g.total());
}
BENCHMARK(BM_GlcmAccumulate_Reference_AllDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_GlcmAccumulate_Kernel_AllDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::unique_directions(ActiveDims::all4());
  haralick::KernelScratch scratch(32);
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    g.accumulate(v.view(), Region4{{2, 2, 2, 2}, roi}, dirs, &scratch);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pair_updates_per_roi"] = static_cast<double>(g.total());
}
BENCHMARK(BM_GlcmAccumulate_Kernel_AllDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_GlcmAccumulate_AxisDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::axis_directions(ActiveDims::all4());
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    g.accumulate(v.view(), Region4{{2, 2, 2, 2}, roi}, dirs);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GlcmAccumulate_AxisDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_AnalyzeChunk_FullPipelineKernel(benchmark::State& state) {
  // One HMP work unit: a chunk's worth of ROIs end to end.
  const auto v = mri_like({24, 24, 6, 6}, 32);
  haralick::EngineConfig cfg;
  cfg.roi_dims = {5, 5, 3, 3};
  cfg.num_levels = 32;
  cfg.representation = state.range(0) == 0 ? haralick::Representation::Full
                                           : haralick::Representation::Sparse;
  const Region4 whole = Region4::whole(v.dims());
  const Region4 owned = roi_origin_region(v.dims(), cfg.roi_dims);
  haralick::KernelScratch scratch(32);
  for (auto _ : state) {
    auto blocks = haralick::analyze_chunk(v.view(), whole, owned, cfg, nullptr, &scratch);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetLabel(state.range(0) == 0 ? "full" : "sparse");
}
BENCHMARK(BM_AnalyzeChunk_FullPipelineKernel)->Arg(0)->Arg(1);

// ---- committed-baseline mode (--json) ----

/// Times one (volume, roi, dirs, ng) configuration through both construction
/// paths. Each op rebuilds the dense matrix from scratch, exactly what the
/// engine does per ROI position.
void json_glcm_pair(std::vector<h4d::bench::MicroRun>& runs, const std::string& config,
                    const Volume4<Level>& v, const Region4& roi,
                    const std::vector<Vec4>& dirs, int ng) {
  haralick::Glcm g(ng);
  const double pairs = static_cast<double>(g.accumulate_reference(v.view(), roi, dirs));

  g.clear();
  const double ref_ns = h4d::bench::measure_ns_per_op([&] {
    g.clear();
    g.accumulate_reference(v.view(), roi, dirs);
  });

  haralick::KernelScratch scratch(ng);
  g.clear();
  const double ker_ns = h4d::bench::measure_ns_per_op([&] {
    g.clear();
    g.accumulate(v.view(), roi, dirs, &scratch);
  });

  runs.push_back({"glcm_reference/" + config,
                  {{"ns_per_roi", ref_ns},
                   {"pair_updates_per_roi", pairs},
                   {"pair_updates_per_sec", pairs / (ref_ns * 1e-9)}}});
  runs.push_back({"glcm_kernel/" + config,
                  {{"ns_per_roi", ker_ns},
                   {"pair_updates_per_roi", pairs},
                   {"pair_updates_per_sec", pairs / (ker_ns * 1e-9)}}});
}

int run_json(const std::string& path) {
  std::vector<h4d::bench::MicroRun> runs;

  // The paper configuration (Sec. 5.1): 7x7x3x3 ROI, the 13 unique 3D
  // directions, Ng=32 — the acceptance gate compares these two rows.
  {
    const auto v = mri_like({11, 11, 7, 7}, 32);
    const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
    json_glcm_pair(runs, "paper_roi7x7x3x3_dirs13_ng32", v, roi,
                   haralick::unique_directions(ActiveDims::spatial3()), 32);
  }
  // Full 4D neighborhood (40 unique directions) on the same ROI.
  {
    const auto v = mri_like({11, 11, 7, 7}, 32);
    const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
    json_glcm_pair(runs, "all4_roi7x7x3x3_dirs40_ng32", v, roi,
                   haralick::unique_directions(ActiveDims::all4()), 32);
  }
  // Large-Ng stress: the tile no longer fits L1; the fold dominates less.
  {
    const auto v = mri_like({15, 15, 7, 7}, 256);
    const Region4 roi{{2, 2, 2, 2}, {11, 11, 3, 3}};
    json_glcm_pair(runs, "all4_roi11x11x3x3_dirs40_ng256", v, roi,
                   haralick::unique_directions(ActiveDims::all4()), 256);
  }

  return h4d::bench::write_micro_json("micro_glcm", runs, path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (h4d::bench::json_output_path(argc, argv, json_path)) return run_json(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
