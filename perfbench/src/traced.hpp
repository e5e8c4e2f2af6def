// The traced pass: the pipeline's work done on one thread by calling each
// layer's public functions in pipeline order, with a span around every call.
#pragma once

#include <filesystem>
#include <map>
#include <string>

#include "fs/metrics.hpp"
#include "timed.hpp"

namespace h4d::perfbench {

/// Exact work counts the traced pass must share with a pipeline run.
struct WorkCounts {
  std::int64_t glcm_pair_updates = 0;
  std::int64_t feature_cell_ops = 0;
  std::int64_t disk_bytes_read = 0;
  std::int64_t elements_quantized = 0;
  std::int64_t elements_stitched = 0;
  std::int64_t matrix_wire_bytes = 0;

  /// (name, value) pairs in a fixed order, for the cross-check table.
  std::map<std::string, std::int64_t> named() const;
};

/// The same counts summed from an untraced run's per-filter WorkMeters
/// (matrix wire bytes: what the HPC copies received).
WorkCounts pipeline_counts(const fs::BottleneckReport& report);

struct TracedPass {
  bool ok = false;
  std::string error;  ///< exception text or map mismatch when !ok
  WorkCounts counts;
  double cpu_s = 0.0;
  /// Sum of the self times of every span in a src/ layer (io, nd,
  /// haralick, filters) except image writes; benchmark glue and the root
  /// are left out.
  double layer_self_s = 0.0;
  /// Self time of the haralick kernel calls (GLCM and feature passes).
  double kernel_self_s = 0.0;
  /// Span-derived per-layer metrics, keyed by their BENCHMARK.json names.
  std::map<std::string, double> metrics;
};

/// Runs the traced pass on the workload's dataset and checks its maps
/// against `ref`. Images (where the workload writes) go to `image_dir`.
/// A non-empty `chrome_trace` receives every span as a Chrome trace.
TracedPass traced_pass(const Workload& w, const FeatureMaps& ref,
                       const std::filesystem::path& image_dir,
                       const std::filesystem::path& chrome_trace);

}  // namespace h4d::perfbench
