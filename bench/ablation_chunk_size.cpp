// Ablation: IIC->TEXTURE chunk size (paper Sec. 5.1).
//
// The paper reports that smaller chunks "created a volume of communication
// that was too great" (the ROI-sized limit being the worst case, Fig. 6a),
// while larger chunks "could not be distributed to the texture analysis
// filters fast enough, which left some filters idle". This harness sweeps
// the chunk extent for a fixed 8-node split pipeline and reports execution
// time, data duplication, and network traffic.
#include "bench_common.hpp"

using namespace h4d;
using haralick::Representation;

int main(int argc, char** argv) {
  const bench::Workload w = bench::setup_workload(argc, argv);
  bench::Report report(
      "ablation_chunk_size", "IIC->TEXTURE chunk size trade-off (paper Sec. 5.1)",
      {"chunk", "num_chunks", "dup_factor", "net_MB", "time_s"});

  struct Row {
    Vec4 chunk;
    double time;
    double dup;
  };
  std::vector<Row> rows;

  const int texture_nodes = 8;
  const auto opt = bench::piii_options(texture_nodes);
  std::vector<Vec4> sweep;
  if (w.full_scale) {
    sweep = {{8, 8, 4, 4}, {16, 16, 8, 8}, {32, 32, 8, 8}, {64, 64, 8, 8},
             {128, 128, 16, 16}, {256, 256, 32, 32}};
  } else {
    sweep = {{6, 6, 4, 4}, {8, 8, 6, 4}, {12, 12, 8, 6}, {16, 16, 8, 6},
             {24, 24, 8, 6}, {48, 48, 12, 10}};
  }

  for (const Vec4& chunk : sweep) {
    auto cfg =
        bench::split_config(w, texture_nodes, Representation::Sparse, /*overlap=*/true);
    cfg.texture_chunk = chunk;
    const auto chunks = partition_overlapping(w.dims, chunk, w.roi);
    double covered = 0;
    for (const Chunk& c : chunks) covered += static_cast<double>(c.region.volume());
    const double dup = covered / static_cast<double>(w.dims.volume());

    const auto stats = bench::run_config(cfg, opt);

    rows.push_back({chunk, stats.total_seconds, dup});
    report.row({chunk.str(), std::to_string(chunks.size()), bench::Report::sec(dup),
                bench::Report::sec(static_cast<double>(stats.network_bytes) / 1e6),
                bench::Report::sec(stats.total_seconds)});
  }

  // The paper's claim is a U-shape: the extremes lose to a middle size.
  double best = 1e18;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].time < best) {
      best = rows[i].time;
      best_i = i;
    }
  }
  report.check("smallest chunk is not optimal (overlap duplication cost)", best_i != 0);
  report.check("largest chunk is not optimal (idle texture filters)",
               best_i != rows.size() - 1);
  report.check("duplication factor decreases with chunk size",
               rows.front().dup > rows.back().dup);
  return report.finish();
}
