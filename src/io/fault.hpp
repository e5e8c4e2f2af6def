// Deterministic storage-fault injection (resilience layer, part 1).
//
// A long out-of-core run touches millions of slice reads; at that scale the
// storage layer *will* hiccup (transient open failures, short reads, silent
// bit rot, latency stalls). The FaultInjector reproduces those hiccups
// deterministically so the retry/degradation machinery in ResilientReader can
// be tested and benchmarked: every decision is a pure hash of
// (seed, slice, attempt), so a given seed yields the same fault schedule
// regardless of thread interleaving or call order across filter copies.
//
// Fault taxonomy:
//   * fail_open / short_read / stall — *transient*: decided per read attempt,
//     so a retry of the same slice may succeed. `max_transient_per_slice`
//     bounds how many transient faults one slice can suffer, which makes
//     retry-until-success provable in tests.
//   * corrupt — *sticky*: decided per slice (attempt-independent), modeling
//     on-disk bit rot. Re-reads see the same corruption; only checksum
//     verification can detect it and only skip_and_fill can get past it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace h4d::io {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `n` bytes, chainable via
/// `crc`. Used for the per-slice checksums in the dataset index files.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// Shape of an injected stall's duration.
enum class StallDist {
  Fixed,   ///< every stall lasts exactly stall_ms (modeled)
  Pareto,  ///< heavy-tailed: stall_ms x (1-u)^(-1/alpha), the classic
           ///< gray-failure latency profile (most stalls short, rare huge)
};

/// Configuration of the injector. All probabilities are in [0, 1];
/// a default-constructed config injects nothing.
/// A fault spec value that does not parse, is out of its domain, or leaves
/// trailing text in its token; names the key and the value.
class FaultSpecError : public std::runtime_error {
 public:
  FaultSpecError(const std::string& spec_key, const std::string& spec_value);
  std::string key;
  std::string value;
};

struct FaultConfig {
  std::uint64_t seed = 0;
  double p_fail_open = 0.0;   ///< per attempt: open() fails
  double p_short_read = 0.0;  ///< per attempt: read() returns too few bytes
  double p_corrupt = 0.0;     ///< per slice (sticky): delivered bytes are flipped
  double p_stall = 0.0;       ///< per attempt: the read stalls for stall_ms
  double stall_ms = 1.0;
  /// Stall duration distribution. Pareto samples are a pure hash of
  /// (seed, slice, attempt), so the heavy tail is deterministic too.
  StallDist stall_dist = StallDist::Fixed;
  double pareto_alpha = 1.5;  ///< Pareto shape (smaller = heavier tail)
  /// Per-node stall multipliers (gray failure: one slow node among healthy
  /// peers). A node absent from the map has multiplier 1. Applied to the
  /// modeled duration of stalls injected on reads served by that node.
  std::map<int, double> slow_nodes;
  /// Hard per-attempt bound on the *real* sleep an injected stall performs.
  /// The configured stall_ms still describes the modeled hiccup, but a test
  /// process never blocks longer than this per attempt; stalls clipped by
  /// the cap are counted in FaultStats::stalls_capped.
  double stall_cap_ms = 25.0;
  bool really_sleep = true;   ///< false: stalls are only counted, not slept
  /// Transient faults (open/short-read/stall) stop firing on a slice after
  /// this many have been injected, guaranteeing eventual read success.
  int max_transient_per_slice = std::numeric_limits<int>::max();

  bool enabled() const {
    return p_fail_open > 0.0 || p_short_read > 0.0 || p_corrupt > 0.0 || p_stall > 0.0;
  }

  /// Parse a CLI spec: comma-separated key=value pairs among
  /// seed, open, read, corrupt, stall, stall_ms, stall_cap, max_transient,
  /// stall_dist (fixed|pareto), pareto_alpha, slow_nodes (node:mult pairs
  /// separated by ';', e.g. slow_nodes=0:16;2:4).
  /// Example: "seed=7,open=0.05,read=0.02,corrupt=0.01". Empty => disabled.
  /// Numeric values are validated: each must fill its whole token (no
  /// trailing text, no sign on seed, in range for its type), probabilities
  /// must lie in [0,1], and stall_ms / stall_cap / pareto_alpha / slow-node
  /// multipliers / max_transient must be finite and non-negative. A value
  /// that fails throws FaultSpecError.
  static FaultConfig parse(const std::string& spec);
  std::string str() const;
};

/// Counts of faults actually injected (for reporting; thread-safe).
struct FaultStats {
  std::atomic<std::int64_t> opens_failed{0};
  std::atomic<std::int64_t> short_reads{0};
  std::atomic<std::int64_t> stalls{0};
  /// Stalls whose real sleep was clipped by stall_cap_ms (the modeled stall
  /// exceeded the hard per-attempt sleep bound).
  std::atomic<std::int64_t> stalls_capped{0};
  std::atomic<std::int64_t> slices_corrupted{0};  ///< corrupt deliveries (per read)
};

/// What the injector decided for one read attempt of one slice.
struct AttemptPlan {
  bool fail_open = false;
  bool short_read = false;
  bool stall = false;
  /// Modeled duration of the injected stall (before the stall_cap_ms sleep
  /// clip); 0 when stall is false. Tests pin the heavy-tail determinism.
  double stall_ms = 0.0;
};

/// Seeded, deterministic fault source shared by every reader of one run.
/// Thread-safe: per-slice attempt counters are mutex-guarded, decisions are
/// stateless hashes.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return cfg_; }
  const FaultStats& stats() const { return stats_; }

  /// Decide the fate of the next read attempt of slice (t, z). Increments the
  /// slice's attempt counter; also performs (or just counts) the stall.
  /// `node` identifies the storage node serving the attempt (slow_nodes
  /// multiplier lookup); -1 = unknown (multiplier 1). The fault *decisions*
  /// are node-independent, so a schedule replays identically whichever node
  /// answers.
  AttemptPlan plan_attempt(std::int64_t t, std::int64_t z, int node = -1);

  /// Sticky per-slice corruption decision (same answer on every call and on
  /// every injector constructed with the same config).
  bool is_slice_corrupted(std::int64_t t, std::int64_t z) const;

  /// Deterministically flip bytes of a corrupted slice's delivered data.
  /// No-op when the slice is not corrupted.
  void apply_corruption(std::int64_t t, std::int64_t z, std::uint8_t* data,
                        std::size_t n);

  /// Attempts observed so far for a slice (testing / diagnostics).
  int attempts(std::int64_t t, std::int64_t z) const;

 private:
  double uniform(std::int64_t slice, std::int64_t attempt, std::uint64_t salt) const;

  FaultConfig cfg_;
  FaultStats stats_;
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, int> attempts_;   ///< slice key -> attempts
  std::unordered_map<std::int64_t, int> transient_;  ///< slice key -> faults injected
};

}  // namespace h4d::io
