// Bounded multi-producer multi-consumer queue (mutex + condvar) used for
// filter inboxes in the threaded executor. Blocking push gives natural
// backpressure on streams; the queue records how often and for how long
// producers were held back, which the observability layer surfaces as
// enqueue-stall time (see docs/OBSERVABILITY.md and DESIGN §13).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace h4d::fs {

/// Lifetime counters of one queue, maintained under its lock; stats()
/// returns a snapshot for end-of-run reporting.
struct QueueStats {
  std::size_t max_depth = 0;        ///< high-water mark of queued items
  std::int64_t stalled_pushes = 0;  ///< pushes that found the queue full
  double stall_seconds = 0.0;       ///< total time producers waited in push()
};

/// Result of a timed push attempt.
enum class PushOutcome {
  Ok,       ///< enqueued
  Closed,   ///< queue was closed (now or while waiting)
  Timeout,  ///< still full after the timeout — caller decides what's next
};

/// Contract:
///   * push() blocks while full, fails (false) once closed;
///   * push_for() waits at most `timeout`, reporting Ok/Closed/Timeout;
///     `count_stall` lets a retry loop count one stall across many slices
///     while the waited time always accumulates into stall_seconds;
///   * try_pop() never blocks (watchdog drains of a dead copy's inbox);
///   * pop() blocks while empty; after close() it drains the remaining
///     items, then returns nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 64) : capacity_(capacity ? capacity : 1) {}

  /// Blocks while full; returns false when the queue was closed.
  bool push(T item) {
    std::unique_lock lk(mu_);
    wait_while_full(lk, /*count_stall=*/true, [this, &lk] {
      not_full_.wait(lk, [this] { return items_.size() < capacity_ || closed_; });
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    stats_.max_depth = std::max(stats_.max_depth, items_.size());
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Like push(), but gives up after `timeout` when the queue stays full.
  /// Lets the executor wait on backpressure in bounded slices (refreshing
  /// watchdog heartbeats, noticing aborts) instead of blocking indefinitely.
  template <typename Rep, typename Period>
  PushOutcome push_for(T item, std::chrono::duration<Rep, Period> timeout,
                       bool count_stall = true) {
    std::unique_lock lk(mu_);
    wait_while_full(lk, count_stall, [this, &lk, timeout] {
      not_full_.wait_for(lk, timeout,
                         [this] { return items_.size() < capacity_ || closed_; });
    });
    if (closed_) return PushOutcome::Closed;
    if (items_.size() >= capacity_) return PushOutcome::Timeout;
    items_.push_back(std::move(item));
    stats_.max_depth = std::max(stats_.max_depth, items_.size());
    lk.unlock();
    not_empty_.notify_one();
    return PushOutcome::Ok;
  }

  /// Non-blocking pop: the front item, or nullopt when currently empty
  /// (regardless of closed state). Used by the watchdog to drain the inbox
  /// of a copy declared dead without ever blocking.
  std::optional<T> try_pop() {
    std::unique_lock lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocks while empty; returns nullopt when closed and drained.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    not_empty_.wait(lk, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return item;
  }

  /// After close(), push() fails and pop() drains the remaining items.
  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Snapshot of the backpressure counters accumulated so far.
  QueueStats stats() const {
    std::lock_guard lk(mu_);
    return stats_;
  }

 private:
  /// The stall-timing block shared by push() and push_for(): when the queue
  /// is full (and open), count the stall once if asked, run the caller's
  /// wait, and account the whole waited time. Factored so both paths report
  /// stalls identically.
  template <typename WaitFn>
  void wait_while_full(std::unique_lock<std::mutex>& lk, bool count_stall,
                       WaitFn&& wait) {
    (void)lk;  // held by the caller; the wait runs under it
    if (items_.size() < capacity_ || closed_) return;
    if (count_stall) stats_.stalled_pushes++;
    const auto t0 = std::chrono::steady_clock::now();
    wait();
    stats_.stall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  QueueStats stats_;
  bool closed_ = false;
};

}  // namespace h4d::fs
