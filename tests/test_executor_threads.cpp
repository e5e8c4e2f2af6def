#include "fs/executor_threads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <latch>
#include <map>
#include <mutex>

#include "toy_filters.hpp"

namespace h4d::fs {
namespace {

using testing::CollectSink;
using testing::NumberSource;
using testing::PoisonFilter;
using testing::ScaleFilter;
using testing::SinkState;

FilterGraph linear_graph(std::shared_ptr<SinkState> state, int items, int scale_copies,
                         Policy policy) {
  FilterGraph g;
  const int src = g.add_filter({"source", [items] { return std::make_unique<NumberSource>(items); },
                                1, {}});
  const int mid = g.add_filter(
      {"scale", [] { return std::make_unique<ScaleFilter>(3); }, scale_copies, {}});
  const int sink =
      g.add_filter({"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, mid, policy);
  g.connect(mid, 0, sink, Policy::DemandDriven);
  return g;
}

std::int64_t expected_sum(int items, std::int64_t factor) {
  return factor * static_cast<std::int64_t>(items) * (items - 1) / 2;
}

TEST(ThreadedExecutor, LinearPipelineDeliversEverything) {
  auto state = std::make_shared<SinkState>();
  const RunStats stats = run_threaded(linear_graph(state, 100, 1, Policy::RoundRobin));
  EXPECT_EQ(state->count(), 100u);
  EXPECT_EQ(state->sum(), expected_sum(100, 3));
  EXPECT_EQ(state->flushes.load(), 1);
  EXPECT_GT(stats.total_seconds, 0.0);
}

class CopiesAndPolicies
    : public ::testing::TestWithParam<std::tuple<int, Policy>> {};

TEST_P(CopiesAndPolicies, ResultsIndependentOfParallelismAndPolicy) {
  const auto [copies, policy] = GetParam();
  auto state = std::make_shared<SinkState>();
  run_threaded(linear_graph(state, 200, copies, policy));
  EXPECT_EQ(state->count(), 200u);
  EXPECT_EQ(state->sum(), expected_sum(200, 3));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CopiesAndPolicies,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(Policy::RoundRobin, Policy::DemandDriven)));

TEST(ThreadedExecutor, RoundRobinSpreadsEvenly) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(90); }, 1, {}});
  const int mid =
      g.add_filter({"scale", [] { return std::make_unique<ScaleFilter>(1); }, 3, {}});
  auto sink_state = state;
  const int sink = g.add_filter(
      {"sink", [sink_state] { return std::make_unique<CollectSink>(sink_state); }, 1, {}});
  g.connect(src, 0, mid, Policy::RoundRobin);
  g.connect(mid, 0, sink);
  const RunStats stats = run_threaded(g);

  for (const CopyStats& c : stats.copies) {
    if (c.filter == "scale") EXPECT_EQ(c.meter.buffers_in, 30);
  }
}

TEST(ThreadedExecutor, ExplicitRoutingHonored) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(20); }, 1, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 2, {}});
  // Evens to copy 0, odds to copy 1.
  g.connect(src, 0, sink, Policy::Explicit,
            [](const BufferHeader& h, int) { return static_cast<int>(h.seq % 2); });
  const RunStats stats = run_threaded(g);
  EXPECT_EQ(state->count(), 20u);
  for (const CopyStats& c : stats.copies) {
    if (c.filter == "sink") EXPECT_EQ(c.meter.buffers_in, 10);
  }
}

TEST(ThreadedExecutor, ExplicitRouteOutOfRangeSurfacesError) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(3); }, 1, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 2, {}});
  g.connect(src, 0, sink, Policy::Explicit, [](const BufferHeader&, int) { return 7; });
  EXPECT_THROW(run_threaded(g), std::out_of_range);
}

TEST(ThreadedExecutor, FilterExceptionPropagates) {
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(10); }, 1, {}});
  const int bad =
      g.add_filter({"poison", [] { return std::make_unique<PoisonFilter>(5); }, 1, {}});
  auto state = std::make_shared<SinkState>();
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, bad);
  g.connect(bad, 0, sink);
  EXPECT_THROW(run_threaded(g), std::runtime_error);
}

TEST(ThreadedExecutor, MultiStageFanInCountsAllProducers) {
  // Two sources fan into one sink; sink must see both streams end.
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int s1 =
      g.add_filter({"s1", [] { return std::make_unique<NumberSource>(5); }, 1, {}});
  const int s2 =
      g.add_filter({"s2", [] { return std::make_unique<NumberSource>(7); }, 1, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(s1, 0, sink);
  g.connect(s2, 0, sink);
  run_threaded(g);
  EXPECT_EQ(state->count(), 12u);
  EXPECT_EQ(state->flushes.load(), 1);
}

TEST(ThreadedExecutor, SourceCopiesEachRun) {
  auto state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(4); }, 3, {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, sink);
  run_threaded(g);
  EXPECT_EQ(state->count(), 12u);  // 3 copies x 4 items
}

TEST(ThreadedExecutor, StatsCarryMeterAndBytes) {
  auto state = std::make_shared<SinkState>();
  const RunStats stats = run_threaded(linear_graph(state, 50, 2, Policy::RoundRobin));
  std::int64_t source_out = 0, sink_in = 0;
  for (const CopyStats& c : stats.copies) {
    if (c.filter == "source") source_out += c.meter.buffers_out;
    if (c.filter == "sink") sink_in += c.meter.buffers_in;
  }
  EXPECT_EQ(source_out, 50);
  EXPECT_EQ(sink_in, 50);
}

TEST(ThreadedExecutor, SmallQueueCapacityStillCompletes) {
  auto state = std::make_shared<SinkState>();
  ThreadedOptions opt;
  opt.queue_capacity = 1;  // maximal backpressure
  run_threaded(linear_graph(state, 300, 2, Policy::DemandDriven), opt);
  EXPECT_EQ(state->count(), 300u);
}

// --- demand-driven routing -------------------------------------------------
//
// Routing decisions are observed through which copy processed which payload.
// Latches hold copies inside process() at the moments that matter, so the
// copy loads the router sees are fixed, not timing-dependent.

/// Which copy of the worker group processed each payload, and a count of
/// completed process() calls the sources can wait on.
struct RouteLog {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::int64_t, int> copy_of;
  std::vector<std::int64_t> processed_by_copy1;
  int done = 0;

  void record(std::int64_t payload, int copy) {
    std::lock_guard lk(mu);
    copy_of[payload] = copy;
    if (copy == 1) processed_by_copy1.push_back(payload);
  }
  void finish() {
    {
      std::lock_guard lk(mu);
      ++done;
    }
    cv.notify_all();
  }
  void wait_done(int n) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return done >= n; });
  }
};

/// Source that runs an arbitrary body (emitting through `emit_number`).
class ScriptSource final : public Filter {
 public:
  using Body = std::function<void(FilterContext&)>;
  explicit ScriptSource(Body body) : body_(std::move(body)) {}
  std::string_view name() const override { return "script"; }
  void run_source(FilterContext& ctx) override { body_(ctx); }

 private:
  Body body_;
};

void emit_number(FilterContext& ctx, std::int64_t value) {
  BufferHeader h;
  h.kind = BufferKind::Control;
  h.seq = value;
  auto buf = make_buffer(h);
  buf->alloc_as<std::int64_t>(1)[0] = value;
  ctx.emit(0, std::move(buf));
}

/// Terminal worker: logs its copy index per payload and runs `hook` inside
/// process() (where the copy counts as busy), then marks the call done.
class LoggingWorker final : public Filter {
 public:
  using Hook = std::function<void(std::int64_t payload)>;
  LoggingWorker(std::shared_ptr<RouteLog> log, Hook hook)
      : log_(std::move(log)), hook_(std::move(hook)) {}
  std::string_view name() const override { return "worker"; }
  void process(int, const BufferPtr& buffer, FilterContext& ctx) override {
    const std::int64_t v = buffer->as<std::int64_t>()[0];
    log_->record(v, ctx.copy_index());
    if (hook_) hook_(v);
    log_->finish();
  }

 private:
  std::shared_ptr<RouteLog> log_;
  Hook hook_;
};

TEST(DemandDrivenRouting, BusyCopyWithEmptyInboxIsNotIdle) {
  // Source A's buffer lands on copy 0 (all idle, scan starts at 0) and holds
  // it inside process(). Source B's edge also starts its scan at copy 0, so
  // with inbox depth alone (0 vs 0) the tie would send B's buffer to the
  // busy copy 0; counting the busy copy as loaded sends it to idle copy 1.
  auto log = std::make_shared<RouteLog>();
  auto held = std::make_shared<std::latch>(1);
  auto release = std::make_shared<std::latch>(1);
  FilterGraph g;
  const int a = g.add_filter(
      {"a", [] { return std::make_unique<ScriptSource>([](FilterContext& ctx) {
         emit_number(ctx, 0);
       }); },
       1, {}});
  const int b = g.add_filter(
      {"b", [held, release] {
         return std::make_unique<ScriptSource>([held, release](FilterContext& ctx) {
           held->wait();  // copy 0 is inside process() with an empty inbox
           emit_number(ctx, 1);
           release->count_down();
         });
       },
       1, {}});
  const int w = g.add_filter(
      {"worker", [log, held, release] {
         return std::make_unique<LoggingWorker>(log, [held, release](std::int64_t v) {
           if (v != 0) return;
           held->count_down();
           release->wait();
         });
       },
       2, {}});
  g.connect(a, 0, w, Policy::DemandDriven);
  g.connect(b, 0, w, Policy::DemandDriven);
  run_threaded(g);
  EXPECT_EQ(log->copy_of.at(0), 0);
  EXPECT_EQ(log->copy_of.at(1), 1);
}

TEST(DemandDrivenRouting, TiesRotateAcrossCopies) {
  // One buffer at a time: each is emitted only after the previous call
  // finished, so every copy is idle with an empty inbox when the next is
  // routed. Ties must rotate instead of always picking copy 0.
  constexpr int kCopies = 3;
  constexpr int kBuffers = 3 * kCopies;
  auto log = std::make_shared<RouteLog>();
  FilterGraph g;
  const int src = g.add_filter(
      {"source", [log] {
         return std::make_unique<ScriptSource>([log](FilterContext& ctx) {
           for (int i = 0; i < kBuffers; ++i) {
             emit_number(ctx, i);
             log->wait_done(i + 1);
           }
         });
       },
       1, {}});
  const int w = g.add_filter(
      {"worker", [log] { return std::make_unique<LoggingWorker>(log, nullptr); }, kCopies,
       {}});
  g.connect(src, 0, w, Policy::DemandDriven);
  const RunStats stats = run_threaded(g);
  ASSERT_EQ(log->copy_of.size(), static_cast<std::size_t>(kBuffers));
  for (const CopyStats& c : stats.copies) {
    if (c.filter == "worker") {
      EXPECT_GE(c.meter.buffers_in, 1) << "copy " << c.copy;
    }
  }
}

TEST(DemandDrivenRouting, WatchdogTakeoverSkipsCopiesThatSentEos) {
  // Copy 0 draws payload 0 and wedges, with payloads 1 and 2 pending in its
  // inbox. Copy 1 finishes (flush, then EOS) before the deadline expires;
  // copy 2 stays inside process() on payload 4, its heartbeat kept fresh by
  // downstream emits, until copy 0 wakes. At takeover copy 1 is idle with an
  // empty inbox and copy 2 is busy, so least-loaded alone would pick copy 1,
  // which has left its pop loop and would strand both buffers. They must go
  // to copy 2.
  auto log = std::make_shared<RouteLog>();
  auto flushed = std::make_shared<std::latch>(1);
  auto woke = std::make_shared<std::latch>(1);
  class Worker final : public Filter {
   public:
    Worker(std::shared_ptr<RouteLog> log, std::shared_ptr<std::latch> flushed,
           std::shared_ptr<std::latch> woke)
        : log_(std::move(log)), flushed_(std::move(flushed)), woke_(std::move(woke)) {}
    std::string_view name() const override { return "worker"; }
    void process(int, const BufferPtr& buffer, FilterContext& ctx) override {
      const std::int64_t v = buffer->as<std::int64_t>()[0];
      log_->record(v, ctx.copy_index());
      if (v == 0) {
        flushed_->wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        woke_->count_down();
      } else if (v == 4) {
        while (!woke_->try_wait()) {
          emit_number(ctx, v);  // a completed handoff refreshes the heartbeat
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    }
    void flush(FilterContext& ctx) override {
      if (ctx.copy_index() == 1) flushed_->count_down();
    }

   private:
    std::shared_ptr<RouteLog> log_;
    std::shared_ptr<std::latch> flushed_;
    std::shared_ptr<std::latch> woke_;
  };
  auto sink_state = std::make_shared<SinkState>();
  FilterGraph g;
  const int src =
      g.add_filter({"source", [] { return std::make_unique<NumberSource>(5); }, 1, {}});
  const int w = g.add_filter(
      {"worker", [log, flushed, woke] { return std::make_unique<Worker>(log, flushed, woke); },
       3, {}});
  const int sink = g.add_filter(
      {"sink", [sink_state] { return std::make_unique<CollectSink>(sink_state); }, 1, {}});
  g.connect(src, 0, w, Policy::Explicit, [](const BufferHeader& h, int) {
    return h.seq == 3 ? 1 : h.seq == 4 ? 2 : 0;
  });
  g.connect(w, 0, sink, Policy::DemandDriven);
  ThreadedOptions opt;
  opt.supervise.watchdog_deadline_ms = 200.0;
  const RunStats stats = run_threaded(g, opt);
  EXPECT_EQ(stats.exec.watchdog_kills, 1);
  EXPECT_EQ(stats.exec.buffers_lost, 0);
  EXPECT_EQ(log->processed_by_copy1, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(log->copy_of.at(1), 2);
  EXPECT_EQ(log->copy_of.at(2), 2);
}

}  // namespace
}  // namespace h4d::fs
