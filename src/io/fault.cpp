#include "io/fault.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace h4d::io {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// splitmix64: fast, well-distributed stateless mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a 64-bit hash.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::int64_t slice_key(std::int64_t t, std::int64_t z) {
  return (t << 32) ^ z;
}

/// A number that fills the whole token: no sign on an unsigned type, no
/// leading blanks, no trailing text, and in range for T. Anything else throws
/// std::invalid_argument, which parse() turns into its typed value error.
template <typename T>
T parse_number(const std::string& token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || ptr != end) throw std::invalid_argument(token);
  return v;
}

constexpr std::uint64_t kSaltOpen = 0xA11C0DE5;
constexpr std::uint64_t kSaltShortRead = 0xB2EAD5;
constexpr std::uint64_t kSaltStall = 0xC0FFEE;
constexpr std::uint64_t kSaltCorrupt = 0xDECAF;
constexpr std::uint64_t kSaltStallLen = 0x5CA1AB1E;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

FaultSpecError::FaultSpecError(const std::string& spec_key, const std::string& spec_value)
    : std::runtime_error("bad fault spec value for " + spec_key + ": " + spec_value),
      key(spec_key),
      value(spec_value) {}

FaultConfig FaultConfig::parse(const std::string& spec) {
  FaultConfig cfg;
  if (spec.empty() || spec == "off") return cfg;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("fault spec item needs key=value: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    // Every numeric value is domain-checked: a NaN or negative duration /
    // multiplier / budget would silently disable caps or poison the
    // deterministic schedule, so it is the same typed error as a non-number.
    const auto bad_value = [&] { return FaultSpecError(key, value); };
    const auto non_negative = [&](double v) {
      if (!std::isfinite(v) || v < 0.0) throw bad_value();
      return v;
    };
    const auto probability = [&](double v) {
      if (std::isnan(v) || v < 0.0 || v > 1.0) throw bad_value();
      return v;
    };
    try {
      if (key == "seed") {
        cfg.seed = parse_number<std::uint64_t>(value);
      } else if (key == "open") {
        cfg.p_fail_open = probability(parse_number<double>(value));
      } else if (key == "read") {
        cfg.p_short_read = probability(parse_number<double>(value));
      } else if (key == "corrupt") {
        cfg.p_corrupt = probability(parse_number<double>(value));
      } else if (key == "stall") {
        cfg.p_stall = probability(parse_number<double>(value));
      } else if (key == "stall_ms") {
        cfg.stall_ms = non_negative(parse_number<double>(value));
      } else if (key == "stall_cap") {
        cfg.stall_cap_ms = non_negative(parse_number<double>(value));
      } else if (key == "max_transient") {
        cfg.max_transient_per_slice = parse_number<int>(value);
        if (cfg.max_transient_per_slice < 0) throw bad_value();
      } else if (key == "stall_dist") {
        if (value == "fixed") {
          cfg.stall_dist = StallDist::Fixed;
        } else if (value == "pareto") {
          cfg.stall_dist = StallDist::Pareto;
        } else {
          throw bad_value();
        }
      } else if (key == "pareto_alpha") {
        cfg.pareto_alpha = parse_number<double>(value);
        if (std::isnan(cfg.pareto_alpha) || cfg.pareto_alpha <= 0.0) throw bad_value();
      } else if (key == "slow_nodes") {
        // node:multiplier pairs separated by ';' (the spec splits on ',').
        std::istringstream pairs(value);
        std::string pair;
        while (std::getline(pairs, pair, ';')) {
          const auto colon = pair.find(':');
          if (colon == std::string::npos) throw bad_value();
          const int node = parse_number<int>(pair.substr(0, colon));
          const double mult = parse_number<double>(pair.substr(colon + 1));
          if (node < 0 || std::isnan(mult) || mult < 0.0) throw bad_value();
          cfg.slow_nodes[node] = mult;
        }
      } else {
        throw std::runtime_error("unknown fault spec key: " + key);
      }
    } catch (const std::invalid_argument&) {
      throw bad_value();
    }
  }
  return cfg;
}

std::string FaultConfig::str() const {
  std::ostringstream os;
  os << "seed=" << seed << ",open=" << p_fail_open << ",read=" << p_short_read
     << ",corrupt=" << p_corrupt << ",stall=" << p_stall;
  if (stall_dist == StallDist::Pareto) {
    os << ",stall_dist=pareto,pareto_alpha=" << pareto_alpha;
  }
  if (!slow_nodes.empty()) {
    os << ",slow_nodes=";
    bool first = true;
    for (const auto& [node, mult] : slow_nodes) {
      if (!first) os << ";";
      os << node << ":" << mult;
      first = false;
    }
  }
  return os.str();
}

FaultInjector::FaultInjector(FaultConfig config) : cfg_(config) {}

double FaultInjector::uniform(std::int64_t slice, std::int64_t attempt,
                              std::uint64_t salt) const {
  std::uint64_t h = mix64(cfg_.seed ^ salt);
  h = mix64(h ^ static_cast<std::uint64_t>(slice));
  h = mix64(h ^ static_cast<std::uint64_t>(attempt));
  return to_unit(h);
}

AttemptPlan FaultInjector::plan_attempt(std::int64_t t, std::int64_t z, int node) {
  const std::int64_t key = slice_key(t, z);
  int attempt = 0;
  int transient_so_far = 0;
  {
    std::lock_guard lk(mu_);
    attempt = attempts_[key]++;
    transient_so_far = transient_[key];
  }

  AttemptPlan plan;
  const bool transient_allowed = transient_so_far < cfg_.max_transient_per_slice;
  if (transient_allowed) {
    if (uniform(key, attempt, kSaltOpen) < cfg_.p_fail_open) {
      plan.fail_open = true;
    } else if (uniform(key, attempt, kSaltShortRead) < cfg_.p_short_read) {
      plan.short_read = true;
    }
    if (uniform(key, attempt, kSaltStall) < cfg_.p_stall) plan.stall = true;
  }

  if (plan.fail_open) stats_.opens_failed.fetch_add(1, std::memory_order_relaxed);
  if (plan.short_read) stats_.short_reads.fetch_add(1, std::memory_order_relaxed);
  if (plan.stall) {
    // Modeled duration: the base stall, shaped by the configured
    // distribution (Pareto tail is a pure hash of (seed, slice, attempt) —
    // deterministic like every other decision) and scaled by the serving
    // node's slow multiplier (gray-failure drills).
    plan.stall_ms = cfg_.stall_ms;
    if (cfg_.stall_dist == StallDist::Pareto) {
      const double u = uniform(key, attempt, kSaltStallLen);
      plan.stall_ms *= std::pow(1.0 - u, -1.0 / cfg_.pareto_alpha);
    }
    if (const auto it = cfg_.slow_nodes.find(node); it != cfg_.slow_nodes.end()) {
      plan.stall_ms *= it->second;
    }
    stats_.stalls.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.really_sleep && plan.stall_ms > 0.0) {
      // Never block a real thread longer than the hard cap: the *modeled*
      // stall stays plan.stall_ms, but a mis-typed stall_ms=60000 must not
      // hang a test run for a minute per fault.
      const double sleep_ms = std::min(plan.stall_ms, cfg_.stall_cap_ms);
      if (plan.stall_ms > cfg_.stall_cap_ms) {
        stats_.stalls_capped.fetch_add(1, std::memory_order_relaxed);
      }
      if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
    }
  }
  if (plan.fail_open || plan.short_read || plan.stall) {
    std::lock_guard lk(mu_);
    ++transient_[key];
  }
  return plan;
}

bool FaultInjector::is_slice_corrupted(std::int64_t t, std::int64_t z) const {
  if (cfg_.p_corrupt <= 0.0) return false;
  return uniform(slice_key(t, z), /*attempt=*/-1, kSaltCorrupt) < cfg_.p_corrupt;
}

void FaultInjector::apply_corruption(std::int64_t t, std::int64_t z, std::uint8_t* data,
                                     std::size_t n) {
  if (n == 0 || !is_slice_corrupted(t, z)) return;
  stats_.slices_corrupted.fetch_add(1, std::memory_order_relaxed);
  // Flip a run of bytes at a position derived from the slice identity so
  // every re-read of the slice sees the same damage. Positions are distinct
  // and masks non-zero, so the buffer is guaranteed to differ (the checksum
  // must catch this).
  const std::int64_t key = slice_key(t, z);
  const std::uint64_t h = mix64(cfg_.seed ^ kSaltCorrupt ^ static_cast<std::uint64_t>(key));
  const std::size_t flips = std::min<std::size_t>(n, 1 + h % 4);
  for (std::size_t i = 0; i < flips; ++i) {
    data[(h + i) % n] ^= static_cast<std::uint8_t>(0xA5u + i);
  }
}

int FaultInjector::attempts(std::int64_t t, std::int64_t z) const {
  std::lock_guard lk(mu_);
  const auto it = attempts_.find(slice_key(t, z));
  return it == attempts_.end() ? 0 : it->second;
}

}  // namespace h4d::io
