// Throughput micro-benchmark of the filter-inbox queue (fs/queue.hpp
// BoundedQueue): P producers and C consumers hammer one queue; the row
// metric is items through the queue per wall second. Emits
// h4d-bench-metrics-v1 (figure "bench_queue") with `--json FILE`, which is
// committed as BENCH_queue.json; tools/check_bench.py --fresh bounds a new
// run against it.
//
// Plain wall-time harness (no google-benchmark): one measurement is a whole
// produce/close/drain cycle, so thread start/block/wake costs are inside the
// clock — exactly the costs the executor pays per buffer hand-off.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fs/queue.hpp"
#include "micro_common.hpp"

namespace h4d::bench {
namespace {

struct Shape {
  int producers;
  int consumers;
};

constexpr Shape kShapes[] = {{1, 1}, {2, 2}, {4, 4}};
constexpr std::size_t kCapacity = 1024;
constexpr std::uint64_t kItemsPerProducer = 100'000;
constexpr int kRepeats = 5;

/// One full cycle: start P+C threads, push P*items, close, drain. Returns
/// wall seconds from the moment every thread is released to the last join.
double one_cycle(const Shape& shape, std::uint64_t items_per_producer) {
  fs::BoundedQueue<std::uint64_t> q(kCapacity);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < shape.producers; ++p) {
    threads.emplace_back([&q, &go, items_per_producer] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < items_per_producer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < shape.consumers; ++c) {
    threads.emplace_back([&q, &go, &popped] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t n = 0;
      while (q.pop()) ++n;
      popped.fetch_add(n, std::memory_order_relaxed);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (int p = 0; p < shape.producers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t i = static_cast<std::size_t>(shape.producers); i < threads.size();
       ++i) {
    threads[i].join();
  }
  const double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                         .count();

  const std::uint64_t expect =
      static_cast<std::uint64_t>(shape.producers) * items_per_producer;
  if (popped.load() != expect) {
    std::cerr << "conservation violated: popped " << popped.load() << " of " << expect
              << "\n";
    std::exit(1);
  }
  return sec;
}

MicroRun bench_shape(const Shape& shape) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    best = std::min(best, one_cycle(shape, kItemsPerProducer));
  }
  const double items =
      static_cast<double>(shape.producers) * static_cast<double>(kItemsPerProducer);
  MicroRun run;
  run.label = "queue_locked/" + std::to_string(shape.producers) +
              "p" + std::to_string(shape.consumers) + "c_cap" +
              std::to_string(kCapacity);
  run.metrics = {
      {"ops_per_sec", items / best},
      {"ns_per_op", best * 1e9 / items},
      {"producers", static_cast<double>(shape.producers)},
      {"consumers", static_cast<double>(shape.consumers)},
      {"capacity", static_cast<double>(kCapacity)},
      {"items", items},
  };
  return run;
}

}  // namespace
}  // namespace h4d::bench

int main(int argc, char** argv) {
  using namespace h4d::bench;

  std::vector<MicroRun> runs;
  for (const Shape& shape : kShapes) runs.push_back(bench_shape(shape));

  for (const MicroRun& r : runs) {
    std::cout << r.label << ": " << r.metrics[0].second / 1e6 << " Mops/s ("
              << r.metrics[1].second << " ns/op)\n";
  }

  std::string json_path;
  if (json_output_path(argc, argv, json_path)) {
    return write_micro_json("bench_queue", runs, json_path);
  }
  return 0;
}
