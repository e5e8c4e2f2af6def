// Shared tile-cache micro-benchmark: the same analysis run twice through one
// process-wide TileCache. The cold pass fills the cache from disk (with
// raster-scan prefetch running ahead of demand); the warm pass re-reads the
// dataset through it. Emits figure "bench_cache" with one row per pass —
// tools/check_bench.py gates the committed BENCH_cache.json on
//   warm bytes_read_disk <= 0.5x cold, and warm hit rate >= 60%.
//
// Wall time is real I/O + compute on the build host; the gated quantities
// are deterministic byte counters, so the committed baseline is stable.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/phantom.hpp"
#include "io/tile_cache.hpp"
#include "micro_common.hpp"

namespace {

namespace fsys = std::filesystem;
using namespace h4d;

core::PipelineConfig make_config(const fsys::path& root, int nodes) {
  core::PipelineConfig cfg;
  cfg.dataset_root = root;
  cfg.engine.roi_dims = {7, 7, 3, 3};
  cfg.engine.num_levels = 16;
  cfg.engine.features = haralick::FeatureSet::paper_eval();
  cfg.texture_chunk = {32, 32, 8, 4};
  cfg.rfr_copies = nodes;
  cfg.variant = core::Variant::HMP;
  cfg.hmp_copies = 2;
  cfg.resilience.retry.really_sleep = false;
  return cfg;
}

bench::MicroRun run_row(const std::string& label, core::PipelineConfig cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::AnalysisResult r = core::analyze_threaded(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const fs::CacheReport& c = r.stats.cache;
  const double lookups = static_cast<double>(c.hits + c.misses);
  bench::MicroRun row;
  row.label = label;
  row.metrics = {
      {"bytes_read_disk", static_cast<double>(c.bytes_read_disk)},
      {"bytes_served_cache", static_cast<double>(c.bytes_served_cache)},
      {"cache_hits", static_cast<double>(c.hits)},
      {"cache_misses", static_cast<double>(c.misses)},
      {"hit_rate", lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0},
      {"prefetch_issued", static_cast<double>(c.prefetch_issued)},
      {"prefetch_useful", static_cast<double>(c.prefetch_useful)},
      {"evictions", static_cast<double>(c.evictions)},
      {"resident_bytes", static_cast<double>(c.resident_bytes)},
      {"wall_s", wall},
  };
  std::cout << "  " << label << ": disk " << c.bytes_read_disk / 1024 << " KiB, "
            << c.hits << "/" << static_cast<std::int64_t>(lookups)
            << " hits, prefetch " << c.prefetch_useful << "/" << c.prefetch_issued
            << " useful, " << wall << " s\n";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_cache.json";
  bench::json_output_path(argc, argv, json_path);

  const fsys::path root =
      fsys::temp_directory_path() /
      ("h4d_bench_cache_" + std::to_string(static_cast<long>(::getpid())));
  fsys::remove_all(root);
  const int nodes = 2;
  {
    io::PhantomConfig pcfg;
    pcfg.dims = {64, 64, 16, 8};
    pcfg.num_tumors = 2;
    pcfg.seed = 11;
    io::DiskDataset::create(root, io::generate_phantom(pcfg).volume, nodes);
  }

  core::PipelineConfig cfg = make_config(root, nodes);
  cfg.cache.budget_bytes = 256ull << 20;
  cfg.cache.prefetch_depth = 2;
  // One process-wide cache shared by both passes — what `h4d serve` gives
  // concurrent jobs over the same dataset.
  cfg.tile_cache = std::make_shared<io::TileCache>(cfg.cache);

  std::cout << "tile cache: " << (cfg.cache.budget_bytes >> 20) << " MiB, prefetch depth "
            << cfg.cache.prefetch_depth << "\n";
  std::vector<bench::MicroRun> runs;
  runs.push_back(run_row("reanalysis_cold", cfg));
  runs.push_back(run_row("reanalysis_warm", cfg));
  fsys::remove_all(root);

  return bench::write_micro_json("bench_cache", runs, json_path);
}
