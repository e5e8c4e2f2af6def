// Combined-mode stress: every hardened subsystem armed at once.
//
// Each robustness feature was proven alone; this file proves they compose:
//   * threaded executor: narrow inboxes + --supervise restart + injected
//     filter crashes + injected storage faults, simultaneously, with
//     byte-identical output to a clean run and a clean shutdown (the TSan CI
//     tier runs this binary);
//   * simulator: --sim-failures (copy crashes + restarts in virtual time)
//     together with injected storage faults, byte-identical to a clean run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <vector>

#include "core/analysis.hpp"
#include "fs/executor_threads.hpp"
#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/phantom.hpp"
#include "toy_filters.hpp"

namespace h4d::fs {
namespace {

namespace fsys = std::filesystem;

using testing::CollectSink;
using testing::FlakyFilter;
using testing::FlakyState;
using testing::NumberSource;
using testing::SinkState;

// --- toy graph: narrow inboxes + restart supervision + crashes under load --

TEST(CombinedStress, InboxesSurviveRestartSupervisionUnderLoad) {
  // Many items through narrow inboxes while copies keep crashing and
  // restarting: the blocking handoffs and the supervisor's rebuild path
  // must compose without losing or duplicating a single buffer. Data races
  // here are what the TSan tier exists to catch.
  constexpr int kItems = 400;
  auto state = std::make_shared<SinkState>();
  auto flaky = std::make_shared<FlakyState>();
  std::vector<std::int64_t> crash_on;
  for (int i = 7; i < kItems; i += 37) crash_on.push_back(i);

  FilterGraph g;
  const int src = g.add_filter(
      {"source", [] { return std::make_unique<NumberSource>(int{kItems}); }, 1, {}});
  const int mid = g.add_filter({"mid",
                                [flaky, crash_on] {
                                  return std::make_unique<FlakyFilter>(flaky, crash_on,
                                                                       /*crashes_each=*/1);
                                },
                                3,
                                {}});
  const int sink = g.add_filter(
      {"sink", [state] { return std::make_unique<CollectSink>(state); }, 1, {}});
  g.connect(src, 0, mid, Policy::RoundRobin);
  g.connect(mid, 0, sink, Policy::DemandDriven);

  ThreadedOptions opt;
  opt.queue_capacity = 2;  // maximum backpressure
  opt.supervise.policy = SupervisePolicy::RestartCopy;
  opt.supervise.max_restarts = static_cast<int>(crash_on.size()) + 4;
  const RunStats stats = run_threaded(g, opt);

  EXPECT_EQ(state->count(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(state->sum(), static_cast<std::int64_t>(kItems) * (kItems - 1) / 2);
  EXPECT_EQ(stats.exec.copy_restarts, static_cast<std::int64_t>(crash_on.size()));
  EXPECT_EQ(stats.exec.buffers_lost, 0);
}

// --- real pipeline: all modes combined ------------------------------------

struct CombinedPipelineFixture : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_combined_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    fsys::create_directories(root_);
    io::PhantomConfig pcfg;
    pcfg.dims = {24, 24, 6, 4};
    pcfg.num_tumors = 2;
    pcfg.seed = 19;
    const io::Phantom phantom = io::generate_phantom(pcfg);
    ds_ = root_ / "ds";
    io::DiskDataset::create(ds_, phantom.volume, /*nodes=*/2, /*replicas=*/2);
  }
  void TearDown() override { fsys::remove_all(root_); }

  core::PipelineConfig config() const {
    core::PipelineConfig cfg;
    cfg.dataset_root = ds_;
    cfg.engine.roi_dims = {5, 5, 3, 3};
    cfg.engine.num_levels = 8;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.texture_chunk = {12, 12, 6, 4};
    cfg.rfr_copies = 2;
    cfg.variant = core::Variant::HMP;
    cfg.hmp_copies = 2;
    return cfg;
  }

  fsys::path root_;
  fsys::path ds_;
};

std::uint32_t maps_crc(const core::AnalysisResult& r) {
  std::uint32_t crc = 0;
  for (const auto& [f, map] : r.maps) {
    const auto id = static_cast<std::uint32_t>(f);
    crc = io::crc32(&id, sizeof id, crc);
    crc = io::crc32(map.data(), static_cast<std::size_t>(map.size()) * sizeof(float),
                    crc);
  }
  return crc;
}

TEST_F(CombinedPipelineFixture, ThreadedAllModesByteIdenticalToCleanRun) {
  // Clean reference.
  const core::AnalysisResult clean = core::analyze_threaded(config());
  const std::uint32_t want = maps_crc(clean);
  ASSERT_NE(want, 0u);

  // Everything at once: narrow inboxes, restart supervision, a watchdog,
  // and deterministic storage faults absorbed by the resilient read path.
  core::PipelineConfig cfg = config();
  cfg.faults.seed = 23;
  cfg.faults.p_fail_open = 0.10;
  cfg.faults.p_short_read = 0.05;
  cfg.faults.really_sleep = false;
  cfg.resilience.policy = io::DegradePolicy::Retry;
  cfg.resilience.retry.max_attempts = 8;

  ThreadedOptions opt;
  opt.queue_capacity = 4;
  opt.supervise.policy = SupervisePolicy::RestartCopy;
  opt.supervise.max_restarts = 8;
  opt.supervise.watchdog_deadline_ms = 30000;  // armed, but must not fire

  const core::AnalysisResult stressed = core::analyze_threaded(cfg, opt);
  EXPECT_EQ(maps_crc(stressed), want);
  EXPECT_GT(stressed.faults.read_retries, 0);  // the faults really fired
  EXPECT_EQ(stressed.stats.exec.watchdog_kills, 0);
  EXPECT_EQ(stressed.stats.exec.buffers_lost, 0);
}

TEST_F(CombinedPipelineFixture, SimulatorFailuresPlusStorageFaultsByteIdentical) {
  const core::AnalysisResult clean = core::analyze_threaded(config());
  const std::uint32_t want = maps_crc(clean);

  core::PipelineConfig cfg = config();
  cfg.rfr_nodes = {0, 1};
  cfg.iic_nodes = {2};
  cfg.uso_nodes = {3};
  cfg.hmp_nodes = {4, 5};
  cfg.faults.seed = 31;
  cfg.faults.p_fail_open = 0.08;
  cfg.faults.really_sleep = false;
  cfg.resilience.policy = io::DegradePolicy::Retry;
  cfg.resilience.retry.max_attempts = 8;

  sim::SimOptions sopt;
  sopt.cluster = sim::make_piii_cluster(8);
  sopt.failures.seed = 5;
  sopt.failures.p_crash = 0.05;
  sopt.failures.max_restarts = 1000;
  sopt.failures.poison_threshold = 1000;
  sopt.failures.policy = SupervisePolicy::RestartCopy;

  const core::AnalysisResult r = core::analyze_simulated(cfg, sopt);
  EXPECT_EQ(maps_crc(r), want);  // crashes + faults never change the maps
  EXPECT_GT(r.stats.exec.copy_restarts, 0);  // the failure model really fired
}

}  // namespace
}  // namespace h4d::fs
