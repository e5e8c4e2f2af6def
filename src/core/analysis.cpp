#include "core/analysis.hpp"

#include <limits>

#include "fs/executor_threads.hpp"
#include "nd/quantize.hpp"

namespace h4d::core {

namespace {

AnalysisResult finish(std::shared_ptr<filters::CollectedResults> collected,
                      const filters::ParamsPtr& params) {
  AnalysisResult r;
  r.origins = roi_origin_region(params->meta.dims, params->engine.roi_dims);
  {
    std::lock_guard lk(collected->mu);
    r.maps = std::move(collected->maps);
    r.ranges = std::move(collected->ranges);
  }
  r.faults = params->fault_sink->snapshot();
  return r;
}

/// Fill RunStats.tail from the shared LatencyTracker (exact run totals),
/// the configuration echo, and the replica set's eviction events.
void fill_tail_report(fs::RunStats& stats, const filters::ParamsPtr& params) {
  if (!params->latency || !params->tail.enabled()) return;
  const io::TailConfig& cfg = params->tail;
  const io::LatencyTracker& lt = *params->latency;
  fs::TailReport& t = stats.tail;
  t.present = true;
  t.deadline_mode =
      !cfg.deadline_enabled ? "off" : (cfg.deadline_ms > 0.0 ? "fixed" : "auto");
  t.deadline_ms = cfg.deadline_ms;
  t.deadline_k = cfg.deadline_k;
  t.deadline_floor_ms = cfg.deadline_floor_ms;
  t.deadline_ceiling_ms = cfg.deadline_ceiling_ms;
  t.hedge_enabled = cfg.hedge_enabled;
  t.hedge_pct = cfg.hedge_pct;
  t.hedge_max_inflight = cfg.hedge_max_inflight;
  t.hedges_issued = lt.hedges_issued.load();
  t.hedges_won = lt.hedges_won.load();
  t.hedges_abandoned = lt.hedges_abandoned.load();
  t.reads_abandoned = lt.reads_abandoned.load();
  t.breaches = lt.breaches.load();
  t.evictions_slow = lt.evictions_slow.load();
  for (const io::NodeLatencyStats& n : lt.snapshot()) {
    t.reads += n.reads;
    t.nodes.push_back({n.node, n.reads, n.ewma_ms, n.p50_ms, n.p99_ms, n.breaches});
  }
  if (params->replica_set) {
    for (const io::EvictionEvent& e : params->replica_set->eviction_events()) {
      t.evictions.push_back({e.node, std::string(io::evict_reason_name(e.reason))});
    }
  }
}

}  // namespace

std::uint32_t maps_crc32(const AnalysisResult& result) {
  std::uint32_t crc = 0;
  for (const auto& [feature, map] : result.maps) {
    crc = io::crc32(map.data(), map.storage().size() * sizeof(float), crc);
  }
  return crc;
}

AnalysisResult analyze_in_memory(const Volume4<std::uint16_t>& volume,
                                 const haralick::EngineConfig& engine) {
  const Volume4<Level> levels = quantize_volume(volume, engine.num_levels);
  const auto blocks = haralick::analyze_volume(levels, engine);

  AnalysisResult r;
  r.origins = roi_origin_region(volume.dims(), engine.roi_dims);
  for (const auto& b : blocks) {
    Volume4<float> map = haralick::assemble_feature_map({&b}, r.origins);
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (float v : map.storage()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    r.ranges.emplace(b.feature, std::pair<float, float>(lo, hi));
    r.maps.emplace(b.feature, std::move(map));
  }
  return r;
}

AnalysisResult analyze_threaded(PipelineConfig config,
                                const fs::ThreadedOptions& threaded_options) {
  config.output = OutputMode::Collect;
  auto collected = std::make_shared<filters::CollectedResults>();
  const filters::ParamsPtr params = make_params(config);
  const fs::FilterGraph graph = build_pipeline(config, params, collected);
  const fs::RunStats stats = fs::run_threaded(graph, threaded_options);
  AnalysisResult r = finish(collected, params);
  r.stats = stats;
  r.stats.exec.chunks_resumed = params->chunks_resumed;
  r.stats.exec.replica_failovers = r.faults.replica_failovers;
  r.stats.exec.nodes_evicted = r.faults.nodes_evicted;
  fill_tail_report(r.stats, params);
  return r;
}

AnalysisResult analyze_simulated(PipelineConfig config, const sim::SimOptions& sim_options) {
  config.output = OutputMode::Collect;
  auto collected = std::make_shared<filters::CollectedResults>();
  const filters::ParamsPtr params = make_params(config);
  const fs::FilterGraph graph = build_pipeline(config, params, collected);
  const sim::SimStats stats = sim::run_simulated(graph, sim_options);
  AnalysisResult r = finish(collected, params);
  r.sim = stats;
  r.stats = stats;
  r.stats.exec.chunks_resumed = params->chunks_resumed;
  r.stats.exec.replica_failovers = r.faults.replica_failovers;
  r.stats.exec.nodes_evicted = r.faults.nodes_evicted;
  fill_tail_report(r.stats, params);
  return r;
}

}  // namespace h4d::core
