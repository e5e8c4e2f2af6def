// Discrete-event cluster executor.
//
// Runs a FilterGraph on a modeled cluster: the *real* filter code executes
// (so outputs are bit-identical to the threaded executor), while time is
// virtual — derived from per-operation costs (CostModel), node speeds, core
// contention, NIC/link bandwidth and latency.
//
// Semantics modeled after DataCutter on 2004 clusters:
//   * one task at a time per filter copy; copies on a node contend for its
//     cores (a single-CPU node multiplexes co-located filters — paper Sec. 5.2);
//   * co-located filters exchange buffers by pointer copy at zero cost;
//   * remote exchanges serialize through sender and receiver NICs (FIFO) and
//     any shared inter-cluster link, paying bandwidth + latency;
//   * sends are *blocking*: after processing a buffer, a filter copy cannot
//     start its next buffer until its emitted bytes have left the NIC — but
//     the CPU is free for other co-located copies meanwhile. This is the
//     mechanism behind the paper's "when HCC or HPC is waiting for send and
//     receive operations to complete, the other filter can be doing
//     computation" (Sec. 5.2);
//   * per-message CPU overheads are charged to sender and receiver.
#pragma once

#include "fs/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"

namespace h4d::fs {
class TraceRecorder;
}

namespace h4d::sim {

/// Seeded copy-failure model: what fraction of Data tasks crash their copy,
/// and what a restart costs in virtual time. Decisions are pure hashes of
/// (seed, copy, buffer identity, attempt) — the same seed yields the same
/// crash schedule regardless of event ordering, so failure drills on modeled
/// clusters are reproducible. Crashes strike before the filter runs (the
/// model charges lost time and restarts; retried work is re-executed exactly
/// once so outputs stay bit-identical to a clean run), except for poison
/// tasks under quarantine, whose data is genuinely dropped.
struct FailureModel {
  std::uint64_t seed = 0;
  double p_crash = 0.0;          ///< per Data-task crash probability
  double restart_delay_s = 1.0;  ///< virtual seconds to rebuild a crashed copy
  int max_restarts = 3;          ///< per copy, before the error escalates
  int poison_threshold = 2;      ///< crashes by the same task before quarantine
  fs::SupervisePolicy policy = fs::SupervisePolicy::RestartCopy;

  bool enabled() const { return p_crash > 0.0; }

  /// Parse a CLI spec: comma-separated key=value pairs among
  /// seed, crash, delay (seconds), max_restarts, poison, policy.
  /// Example: "seed=7,crash=0.05,policy=quarantine". Empty => disabled.
  static FailureModel parse(const std::string& spec);
  std::string str() const;
};

struct SimOptions {
  ClusterSpec cluster;
  CostModel cost;
  /// When set, filter-copy activity spans and buffer handoffs are recorded
  /// in *virtual* time, comparable side-by-side with a threaded-run trace.
  /// Must outlive run_simulated().
  fs::TraceRecorder* trace = nullptr;
  /// Copy failure/restart modeling (disabled by default).
  FailureModel failures;
};

/// Extended statistics from a simulated run.
struct SimStats : fs::RunStats {
  std::int64_t network_transfers = 0;
  std::int64_t network_bytes = 0;
  double network_busy_seconds = 0.0;  ///< total wire occupancy (sum over links)
};

/// Execute the graph in virtual time. Placement in FilterSpec::placement
/// refers to node ids of options.cluster (must be valid).
SimStats run_simulated(const fs::FilterGraph& graph, const SimOptions& options);

}  // namespace h4d::sim
