// Reusable concurrency stress harness for the bounded inbox queue
// (fs/queue.hpp). A test builds a Plan — N producers, M
// consumers, optional mid-stream close, timed-push storms, watchdog-style
// try_pop drainers, seeded jitter — runs it against a concrete queue, and
// checks the two invariants every inbox must keep:
//
//   * exact item conservation — every item whose push was accepted (push()
//     returned true / push_for() returned Ok) is popped exactly once, and
//     nothing else ever comes out, even when close() races in-flight pushes;
//   * per-producer FIFO — each single-threaded pop stream observes any one
//     producer's items in the order that producer pushed them.
//
// Items encode (producer id, sequence number) in one uint64 so both checks
// are exact, not statistical. test_queue_stress.cpp instantiates it for
// BoundedQueue and the whole suite runs under ThreadSanitizer in CI (see
// .github/workflows).
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "fs/queue.hpp"

namespace h4d::fs::stress {

/// One item: producer id in the high half, per-producer sequence low.
constexpr std::uint64_t encode(int producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << 32) | seq;
}
constexpr int producer_of(std::uint64_t v) { return static_cast<int>(v >> 32); }
constexpr std::uint64_t seq_of(std::uint64_t v) { return v & 0xffffffffull; }

/// One randomized schedule. Defaults describe the simplest plan: blocking
/// pushes, close after all producers join, no drainers, no jitter.
struct Plan {
  int producers = 4;
  int consumers = 4;
  std::uint64_t items_per_producer = 1000;
  std::size_t capacity = 16;
  unsigned seed = 1;

  /// Producers use push_for() in short slices (retrying on Timeout, first
  /// slice counting the stall) instead of blocking push() — the executor's
  /// heartbeat pattern, and the path a timeout storm exercises.
  bool timed_push = false;
  std::chrono::microseconds slice{200};

  /// When set, a closer thread closes the queue mid-stream after this delay;
  /// producers whose push reports Closed stop, and only accepted items may
  /// come out. When unset, the harness closes after all producers join.
  std::optional<std::chrono::microseconds> close_after;

  /// Watchdog-style threads draining with non-blocking try_pop() bursts,
  /// racing the blocking consumers (the dead-copy inbox drain pattern).
  int drainers = 0;

  /// Upper bound of random sleeps injected into producers and consumers to
  /// vary the interleavings across seeds. 0 => no jitter.
  std::chrono::microseconds max_jitter{0};
};

/// Everything observed while running a Plan.
struct Outcome {
  /// Per producer, the items whose push was accepted, in push order.
  std::vector<std::vector<std::uint64_t>> accepted;
  /// Per pop stream (consumers first, then drainers), items in pop order.
  std::vector<std::vector<std::uint64_t>> streams;
  std::int64_t timeouts = 0;       ///< push_for slices that reported Timeout
  std::int64_t closed_pushes = 0;  ///< pushes rejected because of close()
};

/// Runs the plan against `q` to completion (all threads joined).
template <typename Q>
Outcome run_plan(Q& q, const Plan& plan) {
  Outcome out;
  out.accepted.resize(static_cast<std::size_t>(plan.producers));
  out.streams.resize(static_cast<std::size_t>(plan.consumers + plan.drainers));
  std::atomic<std::int64_t> timeouts{0};
  std::atomic<std::int64_t> closed_pushes{0};
  std::atomic<bool> consumers_done{false};

  auto jitter = [&plan](std::mt19937& rng) {
    if (plan.max_jitter.count() <= 0) return;
    std::uniform_int_distribution<int> d(0, 49);
    if (d(rng) == 0) {
      std::uniform_int_distribution<long long> us(0, plan.max_jitter.count());
      std::this_thread::sleep_for(std::chrono::microseconds(us(rng)));
    }
  };

  std::vector<std::thread> producers;
  for (int p = 0; p < plan.producers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(plan.seed * 7919u + static_cast<unsigned>(p));
      std::vector<std::uint64_t>& mine = out.accepted[static_cast<std::size_t>(p)];
      for (std::uint64_t i = 0; i < plan.items_per_producer; ++i) {
        const std::uint64_t v = encode(p, i);
        jitter(rng);
        if (plan.timed_push) {
          bool first = true;
          for (;;) {
            const PushOutcome r = q.push_for(v, plan.slice, /*count_stall=*/first);
            first = false;
            if (r == PushOutcome::Ok) {
              mine.push_back(v);
              break;
            }
            if (r == PushOutcome::Closed) {
              closed_pushes.fetch_add(1, std::memory_order_relaxed);
              return;  // closed mid-stream: stop producing
            }
            timeouts.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (!q.push(v)) {
            closed_pushes.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          mine.push_back(v);
        }
      }
    });
  }

  std::vector<std::thread> consumers;
  for (int c = 0; c < plan.consumers; ++c) {
    consumers.emplace_back([&, c] {
      std::mt19937 rng(plan.seed * 104729u + static_cast<unsigned>(c));
      std::vector<std::uint64_t>& mine = out.streams[static_cast<std::size_t>(c)];
      while (std::optional<std::uint64_t> v = q.pop()) {
        mine.push_back(*v);
        jitter(rng);
      }
    });
  }

  // Watchdog-style drainers: non-blocking bursts racing the consumers. They
  // stop only after every consumer proved "closed and drained" (pop() =>
  // nullopt), after which a queue can never hold an item again — so exiting
  // on an empty burst is conservation-safe.
  std::vector<std::thread> drainers;
  for (int d = 0; d < plan.drainers; ++d) {
    drainers.emplace_back([&, d] {
      std::vector<std::uint64_t>& mine =
          out.streams[static_cast<std::size_t>(plan.consumers + d)];
      for (;;) {
        while (std::optional<std::uint64_t> v = q.try_pop()) mine.push_back(*v);
        if (consumers_done.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
    });
  }

  std::optional<std::thread> closer;
  if (plan.close_after) {
    closer.emplace([&] {
      std::this_thread::sleep_for(*plan.close_after);
      q.close();
    });
  }

  for (std::thread& t : producers) t.join();
  if (closer) closer->join();
  q.close();  // idempotent: either the mid-stream close or the normal EOS
  for (std::thread& t : consumers) t.join();
  consumers_done.store(true, std::memory_order_release);
  for (std::thread& t : drainers) t.join();

  out.timeouts = timeouts.load();
  out.closed_pushes = closed_pushes.load();
  return out;
}

/// Exact conservation: the multiset of popped items equals the multiset of
/// accepted items. Reports the first few missing/duplicated/invented values.
inline void check_conservation(const Outcome& out) {
  std::map<std::uint64_t, int> balance;  // accepted +1, popped -1
  std::size_t accepted_n = 0, popped_n = 0;
  for (const auto& a : out.accepted) {
    accepted_n += a.size();
    for (std::uint64_t v : a) balance[v]++;
  }
  for (const auto& s : out.streams) {
    popped_n += s.size();
    for (std::uint64_t v : s) balance[v]--;
  }
  EXPECT_EQ(popped_n, accepted_n);
  int reported = 0;
  for (const auto& [v, d] : balance) {
    if (d == 0) continue;
    if (reported++ < 5) {
      ADD_FAILURE() << (d > 0 ? "lost" : "invented/duplicated") << " item: producer "
                    << producer_of(v) << " seq " << seq_of(v) << " (balance " << d
                    << ")";
    }
  }
  EXPECT_EQ(reported, 0) << reported << " items violated conservation";
}

/// Per-producer FIFO: within each single-threaded pop stream, any one
/// producer's items appear with strictly increasing sequence numbers.
inline void check_per_producer_fifo(const Outcome& out) {
  for (std::size_t s = 0; s < out.streams.size(); ++s) {
    std::map<int, std::uint64_t> last;  // producer -> last seq seen (+1)
    for (std::uint64_t v : out.streams[s]) {
      const int p = producer_of(v);
      const std::uint64_t seq = seq_of(v);
      auto it = last.find(p);
      if (it != last.end()) {
        EXPECT_LT(it->second, seq)
            << "stream " << s << " saw producer " << p << " seq " << seq
            << " after seq " << it->second;
      }
      last[p] = seq;
    }
  }
}

/// All checks a conforming queue must pass for any plan.
inline void check_all(const Outcome& out) {
  check_conservation(out);
  check_per_producer_fifo(out);
}

}  // namespace h4d::fs::stress
