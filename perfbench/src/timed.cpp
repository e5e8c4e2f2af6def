#include "timed.hpp"

#include <cmath>
#include <exception>
#include <sstream>
#include <thread>
#include <vector>

#include "haralick/parallel_engine.hpp"
#include "measure.hpp"

namespace h4d::perfbench {

FeatureMaps reference_maps(const Workload& w, const Volume4<std::uint16_t>& volume,
                           const io::DatasetMeta& meta) {
  const haralick::EngineConfig& engine = w.pipeline.engine;
  const Quantizer quant(meta.value_min, meta.value_max, engine.num_levels);
  Volume4<Level> levels(volume.dims());
  quantize_into<std::uint16_t>(volume.view(), quant, levels.view());

  haralick::ParallelOptions opt;
  opt.threads = 4;
  const auto blocks = haralick::analyze_volume_parallel(levels, engine, opt);
  const Region4 origins = roi_origin_region(volume.dims(), engine.roi_dims);
  FeatureMaps maps;
  for (const auto& b : blocks) {
    if (maps.count(b.feature)) continue;
    std::vector<const haralick::FeatureBlock*> same;
    for (const auto& o : blocks) {
      if (o.feature == b.feature) same.push_back(&o);
    }
    maps.emplace(b.feature, haralick::assemble_feature_map(same, origins));
  }
  return maps;
}

std::string compare_maps(const FeatureMaps& got, const FeatureMaps& ref) {
  if (got.size() != ref.size()) {
    return "expected " + std::to_string(ref.size()) + " maps, got " +
           std::to_string(got.size());
  }
  for (const auto& [feature, want] : ref) {
    const auto it = got.find(feature);
    const std::string name(haralick::feature_name(feature));
    if (it == got.end()) return "missing map " + name;
    const Volume4<float>& have = it->second;
    if (have.dims() != want.dims()) return name + ": dims differ";
    for (std::int64_t i = 0; i < want.size(); ++i) {
      const float a = want.storage()[static_cast<std::size_t>(i)];
      const float b = have.storage()[static_cast<std::size_t>(i)];
      if (!(std::abs(a - b) <= 1e-5f * std::max(1.0f, std::abs(a)))) {
        std::ostringstream os;
        os << name << " @" << i << ": " << b << " vs reference " << a;
        return os.str();
      }
    }
  }
  return {};
}

RunSample timed_run(const Workload& w, const FeatureMaps& ref, int clients) {
  RunSample s;
  try {
    std::vector<core::AnalysisResult> results(static_cast<std::size_t>(clients));
    std::vector<std::exception_ptr> errors(results.size());
    const auto analyze = [&](std::size_t i) {
      try {
        results[i] = w.simulated ? core::analyze_simulated(w.pipeline, w.sim)
                                 : core::analyze_threaded(w.pipeline);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    reset_peak_rss();
    const CpuTimes cpu0 = process_cpu_times();
    const double t0 = wall_seconds();
    std::vector<std::thread> side;
    for (std::size_t i = 1; i < results.size(); ++i) side.emplace_back(analyze, i);
    analyze(0);
    for (std::thread& t : side) t.join();
    s.wall_s = wall_seconds() - t0;
    const CpuTimes cpu1 = process_cpu_times();
    s.cpu_s = cpu1.total() - cpu0.total();
    s.sys_s = cpu1.sys - cpu0.sys;
    s.peak_rss_mib = peak_rss_mib();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (const core::AnalysisResult& r : results) {
      s.error = compare_maps(r.maps, ref);
      if (!s.error.empty()) break;
    }
    s.ok = s.error.empty();
    if (w.simulated) {
      s.stats = results.front().sim;
    } else {
      static_cast<fs::RunStats&>(s.stats) = results.front().stats;
    }
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  return s;
}

}  // namespace h4d::perfbench
