// The benchmark's workloads: a phantom dataset shape plus the pipeline
// configuration that analyzes it. README.md records why each one exists.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "io/dataset.hpp"

namespace h4d::perfbench {

struct Workload {
  std::string name;
  Vec4 dims;              ///< phantom extents (x, y, z, t)
  int storage_nodes = 4;  ///< slices spread round-robin over this many nodes
  /// Pipeline configuration; dataset_root is filled in once the phantom is
  /// on disk.
  core::PipelineConfig pipeline;
  bool simulated = false;  ///< analyze_simulated on `sim` instead of threads
  sim::SimOptions sim;
  /// Analyses a timed run starts side by side, each on its own thread; the
  /// run ends when all have finished. Above 1 only for the one-thread
  /// simulator: alone on a 4-vCPU VM its speed swung 1.7x within seconds
  /// with what other tenants ran on the same cores, and the medians of ten
  /// invocations spread 0.17-0.24; with 4 side by side, 0.02-0.06.
  int clients = 1;
  /// The traced pass writes PGM maps as `h4d analyze --out` does. Timed runs
  /// leave writing out: every image is fsynced, and fsync latency on shared
  /// storage doubled their wall time from one window to the next.
  bool writes_images = false;

  std::int64_t roi_origins() const {
    return num_roi_origins(dims, pipeline.engine.roi_dims);
  }
};

/// Throws std::invalid_argument for an unknown name. `toy` shrinks the
/// dataset to seconds-scale sizes for the smoke test; the configuration
/// (variant, engine, copies, chunk raggedness) keeps its character.
Workload make_workload(const std::string& name, bool toy);

/// Timings of one set-up: generate the phantom, write it through
/// DiskDataset::create, open it.
struct SetupTimes {
  double generate_s = 0.0;
  double create_s = 0.0;
  double open_s = 0.0;
  double total_s() const { return generate_s + create_s + open_s; }
};

/// Generates the workload's phantom from `seed`, writes it under `root`
/// (replacing what is there) and opens it.
SetupTimes setup_dataset(const Workload& w, std::uint64_t seed,
                         const std::filesystem::path& root,
                         Volume4<std::uint16_t>* volume_out);

}  // namespace h4d::perfbench
