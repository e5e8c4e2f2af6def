// Pipeline assembly: builds the paper's filter graphs (Figures 4 and 5) from
// a declarative configuration.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "filters/output_filters.hpp"
#include "filters/params.hpp"
#include "fs/graph.hpp"

namespace h4d::core {

/// Which texture-filter instantiation to build (paper Figures 4 vs 5).
enum class Variant {
  HMP,    ///< fused: transparent copies of a single HMP filter
  Split,  ///< task-split: HCC copies pipelined into HPC copies
};

/// Where the pipeline's results go.
enum class OutputMode {
  Unstitched,  ///< USO filter: per-stream sample files (or accounting only)
  Images,      ///< HIC -> JIW: assembled maps written as PGM slice series
  Collect,     ///< HIC -> in-memory collector (library API)
};

struct PipelineConfig {
  std::filesystem::path dataset_root;
  haralick::EngineConfig engine;

  Vec4 io_chunk{0, 0, 1, 1};          ///< 0 => whole slice (paper Sec. 5.1)
  Vec4 texture_chunk{64, 64, 8, 8};   ///< IIC->TEXTURE chunk extents
  int packets_per_chunk = 4;
  int feature_buffer_samples = 4096;

  Variant variant = Variant::HMP;
  OutputMode output = OutputMode::Unstitched;
  std::filesystem::path output_dir;  ///< empty => account writes, keep no files

  /// Copies and their node placement. An empty node list places every copy
  /// on node 0. RFR copy k always reads storage node k, so rfr copies must
  /// equal the dataset's storage node count.
  int rfr_copies = 1;
  std::vector<int> rfr_nodes;
  int iic_copies = 1;
  std::vector<int> iic_nodes;
  int hmp_copies = 1;              ///< Variant::HMP
  std::vector<int> hmp_nodes;
  int hcc_copies = 1;              ///< Variant::Split
  std::vector<int> hcc_nodes;
  int hpc_copies = 1;
  std::vector<int> hpc_nodes;
  int uso_copies = 1;              ///< also hosts HIC/JIW/collector
  std::vector<int> uso_nodes;

  fs::Policy chunk_policy = fs::Policy::DemandDriven;   ///< IIC -> texture
  fs::Policy matrix_policy = fs::Policy::DemandDriven;  ///< HCC -> HPC
  fs::RouteFn matrix_route;  ///< required when matrix_policy is Explicit
  fs::Policy output_policy = fs::Policy::DemandDriven;  ///< texture -> USO

  /// Storage-fault handling of the RFR read path (retry budget, checksum
  /// verification, degradation policy for irrecoverable slices).
  io::ResilienceConfig resilience;
  /// Storage nodes the operator declares dead (--dead-nodes). Their RFR
  /// copies read nothing; slice ownership moves to the surviving replicas.
  /// Node directories missing at open are detected and added automatically.
  std::vector<int> dead_nodes;
  /// Deterministic fault injection (resilience drills / tests); a
  /// default-constructed config injects nothing.
  io::FaultConfig faults;

  /// Chunk-completion manifest for checkpoint/resume (empty => disabled).
  /// With `resume`, chunks already recorded in the manifest are pruned from
  /// the work list before the run starts.
  std::filesystem::path checkpoint_path;
  bool resume = false;

  /// Tail-tolerant I/O on the RFR read path (--read-deadline-ms,
  /// --hedge-pct, --hedge-max-inflight): adaptive per-read deadlines,
  /// hedged replica reads, slow-node eviction. Default-constructed = off.
  io::TailConfig tail;
};

/// A resume that would prune finished chunks from a run whose output is
/// built from assembled maps (Collect or Images). Those chunks' values are
/// not reloaded, so the maps would silently lack them; only Unstitched
/// output keeps finished chunks on disk.
class ResumeError : public std::runtime_error {
 public:
  ResumeError(const std::filesystem::path& manifest_path, std::int64_t chunks);
  std::filesystem::path manifest;
  std::int64_t pruned;
};

/// Build the filter graph for a configuration. When `collected` is non-null
/// and output == Collect, assembled maps land there after execution.
fs::FilterGraph build_pipeline(const PipelineConfig& config,
                               std::shared_ptr<filters::CollectedResults> collected = {});

/// Same, with a caller-provided parameter block (from make_params). Lets the
/// caller keep a handle on the run's shared state — notably the fault-report
/// sink filled in during execution. Throws ResumeError when `params` pruned
/// resumed chunks and the output is not Unstitched.
fs::FilterGraph build_pipeline(const PipelineConfig& config, filters::ParamsPtr params,
                               std::shared_ptr<filters::CollectedResults> collected);

/// The shared parameter block the builder derives (exposed for tests).
filters::ParamsPtr make_params(const PipelineConfig& config);

}  // namespace h4d::core
