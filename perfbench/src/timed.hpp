// Untraced runs through the public entry points (core::analyze_threaded,
// core::analyze_simulated) and the output check every run must pass.
#pragma once

#include <filesystem>
#include <map>
#include <string>

#include "workloads.hpp"

namespace h4d::perfbench {

using FeatureMaps = std::map<haralick::Feature, Volume4<float>>;

/// Reference maps from haralick::analyze_volume_parallel on the phantom,
/// requantized with the dataset's global range as the pipeline does.
FeatureMaps reference_maps(const Workload& w, const Volume4<std::uint16_t>& volume,
                           const io::DatasetMeta& meta);

/// Empty when `got` matches `ref` within 1e-5 relative tolerance
/// (|a - b| <= 1e-5 * max(1, |a|)); otherwise the first mismatch.
std::string compare_maps(const FeatureMaps& got, const FeatureMaps& ref);

struct RunSample {
  bool ok = false;
  std::string error;  ///< exception text or map mismatch when !ok
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + sys
  double sys_s = 0.0;
  double peak_rss_mib = 0.0;
  sim::SimStats stats;  ///< RunStats of the run; the sim fields only on sim-paper
};

/// One closed-loop run: `clients` analysis calls side by side, then the
/// output check of each. `stats` are the first analysis's.
RunSample timed_run(const Workload& w, const FeatureMaps& ref, int clients);

}  // namespace h4d::perfbench
