// h4d_perfbench: closed-loop, warm-page-cache benchmark of the h4d pipeline.
//
//   h4d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--data-dir DIR] [--commit ID] [--toy] [--chrome-trace FILE]
//
// --trace 0: repeated analyses through core::analyze_threaded /
// core::analyze_simulated for S seconds; prints the end-to-end metrics.
// --trace 1: alternates an untraced run with the traced pass for S seconds;
// prints the per-layer metrics and the counter cross-check.
// Human-readable lines go first; the last stdout line is the JSON result.
// README.md describes the workloads and what each metric should move.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fs/metrics.hpp"
#include "measure.hpp"
#include "timed.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace h4d::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricDef kEndToEnd[] = {
    {"wall_us_per_roi", "us"},
    {"cpu_us_per_roi", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.create_s", "s"},
    {"io.open_s", "s"},
    {"io.read_s", "s"},
    {"io.read_bytes", "B"},
    {"io.read_slices", "count"},
    {"io.write_s", "s"},
    {"io.write_bytes", "B"},
    {"nd.quantize_s", "s"},
    {"nd.quantize_elems", "count"},
    {"nd.stitch_s", "s"},
    {"nd.stitch_elems", "count"},
    {"nd.ghost_ratio", "ratio"},
    {"nd.chunks", "count"},
    {"nd.chunk_rois_max_over_mean", "ratio"},
    {"haralick.chunk_us_per_roi", "us"},
    {"haralick.chunk_ms.p50", "ms"},
    {"haralick.chunk_ms.p90", "ms"},
    {"haralick.glcm_ns_per_pair", "ns"},
    {"haralick.glcm_pairs_per_roi", "count"},
    {"haralick.features_us_per_roi", "us"},
    {"haralick.features_cell_ops_per_roi", "count"},
    {"haralick.nnz_per_roi", "count"},
    {"haralick.assemble_s", "s"},
    {"haralick.assemble_elems", "count"},
    {"filters.pack_s", "s"},
    {"filters.unpack_s", "s"},
    {"filters.wire_bytes_per_roi", "B"},
    {"fs.texture.busy_s", "s"},
    {"fs.texture.blocked_in_s", "s"},
    {"fs.texture.util", "ratio"},
    {"fs.texture.busy_max_over_mean", "ratio"},
    {"fs.idle_tail_s", "s"},
    {"fs.hpc.busy_s", "s"},
    {"fs.hpc.blocked_in_s", "s"},
    {"fs.iic.stall_s", "s"},
    {"fs.max_inbox", "count"},
    {"fs.buffers", "count"},
    {"fs.bytes_moved", "B"},
    {"fs.hic.busy_s", "s"},
    {"fs.meter.glcm_pair_updates", "count"},
    {"fs.meter.feature_cell_ops", "count"},
    {"fs.meter.bytes_memcpy", "B"},
    {"fs.meter.disk_bytes_read", "B"},
    {"sim.virtual_s", "s"},
    {"sim.network_bytes", "B"},
    {"sim.network_transfers", "count"},
    {"sim.network_busy_s", "s"},
    {"sim.texture.virtual_busy_max_over_mean", "ratio"},
    {"sim.overhead_s", "s"},
    {"trace.cpu_coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.counter_mismatches", "count"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::filesystem::path data_dir = ".bench_build/perfbench-data";
  std::string commit = "unknown";
  bool toy = false;
  std::filesystem::path chrome_trace;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value());
    } else if (a == "--data-dir") {
      o.data_dir = value();
    } else if (a == "--commit") {
      o.commit = value();
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--chrome-trace") {
      o.chrome_trace = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument(
        "usage: h4d_perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return o;
}

/// Build properties detected at compile time.
struct BuildState {
  bool optimized = false;
  std::string sanitizers;
};

BuildState build_state() {
  BuildState b;
#ifdef __OPTIMIZE__
  b.optimized = true;
#endif
#ifdef __SANITIZE_ADDRESS__
  b.sanitizers += "address ";
#endif
#ifdef __SANITIZE_THREAD__
  b.sanitizers += "thread ";
#endif
#ifdef H4D_BENCH_UBSAN
  b.sanitizers += "undefined ";
#endif
  return b;
}

/// Writes back the dirty data of the filesystem holding `dir`. Called once
/// before the measuring window: without it, the writeback of the dataset
/// just written and the previous invocation's deletions landed in the
/// window's first seconds, where file creation in set-up samples ran 2-4x
/// slower than later in the same window.
void sync_filesystem(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The filter groups the layer metrics describe, from the run's per-filter
/// table; only the busiest texture copy and the first to finish need the
/// per-copy rows.
std::map<std::string, double> fs_metrics(const fs::RunStats& st,
                                         const fs::BottleneckReport& report,
                                         const Workload& w) {
  const std::string texture = w.pipeline.variant == core::Variant::HMP ? "HMP" : "HCC";
  std::map<std::string, double> m;
  fs::WorkMeter sum;
  std::size_t max_inbox = 0;
  for (const fs::FilterMetrics& f : report.filters) {
    sum += f.meter;
    max_inbox = std::max(max_inbox, f.max_inbox);
    if (f.filter == texture) {
      m["fs.texture.busy_s"] = f.busy_seconds;
      m["fs.texture.blocked_in_s"] = f.blocked_input_seconds;
      m["fs.texture.util"] = f.utilization;
      const double mean = f.copies > 0 ? f.busy_seconds / f.copies : 0.0;
      double busy_max = 0.0;
      double first_finish = report.makespan;
      for (const fs::CopyStats& c : st.copies) {
        if (c.filter != texture) continue;
        busy_max = std::max(busy_max, c.busy_seconds);
        first_finish = std::min(first_finish, c.finish_time);
      }
      m["fs.texture.busy_max_over_mean"] = mean > 0.0 ? busy_max / mean : 0.0;
      m["fs.idle_tail_s"] = report.makespan - first_finish;
    } else if (f.filter == "HPC") {
      m["fs.hpc.busy_s"] = f.busy_seconds;
      m["fs.hpc.blocked_in_s"] = f.blocked_input_seconds;
    } else if (f.filter == "IIC") {
      m["fs.iic.stall_s"] = f.blocked_output_seconds + f.enqueue_stall_seconds;
    } else if (f.filter == "HIC") {
      m["fs.hic.busy_s"] = f.busy_seconds;
    }
  }
  m["fs.max_inbox"] = static_cast<double>(max_inbox);
  m["fs.buffers"] = static_cast<double>(sum.buffers_out);
  m["fs.bytes_moved"] = static_cast<double>(sum.bytes_out);
  m["fs.meter.glcm_pair_updates"] = static_cast<double>(sum.work.glcm_pair_updates);
  m["fs.meter.feature_cell_ops"] = static_cast<double>(sum.work.feature_cell_ops);
  m["fs.meter.bytes_memcpy"] = static_cast<double>(sum.bytes_memcpy);
  m["fs.meter.disk_bytes_read"] = static_cast<double>(sum.disk_bytes_read);
  return m;
}

/// Simulator figures; `texture_skew` is fs.texture.busy_max_over_mean of the
/// same (virtual-time) run.
std::map<std::string, double> sim_metrics(const sim::SimStats& st, double texture_skew,
                                          double sim_wall_s, double kernel_self_s) {
  return {{"sim.virtual_s", st.total_seconds},
          {"sim.network_bytes", static_cast<double>(st.network_bytes)},
          {"sim.network_transfers", static_cast<double>(st.network_transfers)},
          {"sim.network_busy_s", st.network_busy_seconds},
          {"sim.texture.virtual_busy_max_over_mean", texture_skew},
          {"sim.overhead_s", sim_wall_s - kernel_self_s}};
}

void print_run_record(const Options& o, const BuildState& b) {
  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace << (o.toy ? " toy" : "")
            << "\n"
            << "# nproc=" << std::thread::hardware_concurrency()
            << " loadavg_before=" << load_average() << "\n"
            << "# compiler=" << __VERSION__ << " build_type=" << H4D_BENCH_BUILD_TYPE
            << " flags=\"" << H4D_BENCH_CXX_FLAGS << "\""
            << " optimized=" << (b.optimized ? "yes" : "no")
            << " sanitizers=" << (b.sanitizers.empty() ? "none" : b.sanitizers) << "\n"
            << "# commit=" << o.commit << "\n";
}

class Runner {
 public:
  Runner(const Options& o, Workload w) : o_(o), w_(std::move(w)) {
    const std::string tag =
        w_.name + "-s" + std::to_string(o.seed) + "-p" + std::to_string(getpid());
    root_ = o.data_dir / tag;
    image_dir_ = root_ / "maps";
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;
  ~Runner() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  int run() {
    const std::filesystem::path dataset = root_ / "dataset";
    add_setup(setup_dataset(w_, o_.seed, dataset, &volume_));
    w_.pipeline.dataset_root = dataset;
    reference_ = reference_maps(w_, volume_, io::DatasetMeta::load(dataset));
    volume_ = Volume4<std::uint16_t>();
    std::cout << "# " << w_.roi_origins() << " ROI origins; reference maps computed\n";
    sync_filesystem(root_);

    check("warm-up", timed_run(w_, reference_, w_.clients));
    if (o_.trace == 0) {
      measure();
    } else {
      trace();
    }
    std::cout << "# loadavg_after=" << load_average() << "\n";
    std::cout << "# failed_frac=" << json_number(failed_frac()) << " (" << failed_ << "/"
              << attempted_ << ")\n";
    print_json();
    return failed_ == 0 && mismatches_ == 0 ? 0 : 1;
  }

 private:
  void add_setup(const SetupTimes& t) { setups_.push_back(t); }

  std::vector<double> setup_totals() const {
    return setup_column([](const SetupTimes& t) { return t.total_s(); });
  }

  /// One field of every set-up sample.
  template <typename Field>
  std::vector<double> setup_column(Field field) const {
    std::vector<double> v;
    for (const SetupTimes& t : setups_) v.push_back(field(t));
    return v;
  }

  /// How many set-ups to sample in the window: about a tenth of it, at
  /// least 8 and at most 48 (one set-up takes 0.03-0.8 s), so that the
  /// median of a short set-up does not rest on a handful of samples.
  double setup_target() const {
    if (o_.toy) return 2.0;
    return std::clamp(std::floor(0.1 * o_.seconds / setups_.front().total_s()), 8.0, 48.0);
  }

  /// Set-up samples are spread evenly over the measuring window, like the
  /// runs, because host speed drifts over seconds.
  void maybe_setup(double start) {
    const double target = setup_target();
    const auto behind = [&] {
      const double done = static_cast<double>(setups_.size());
      return done < target && done <= target * (wall_seconds() - start) / o_.seconds;
    };
    while (behind()) add_setup(setup_dataset(w_, o_.seed, sample_dir(), nullptr));
  }

  /// Every set-up sample rewrites one directory. Deleting the previous
  /// sample drops its dirty pages unwritten; a fresh directory per sample
  /// piles up dirty data whose writeback then lands in later samples (set-up
  /// spread across runs went from 8% to 56% on hmp-ragged, 4-vCPU VM).
  std::filesystem::path sample_dir() const { return root_ / "setup-sample"; }

  /// Closed loop: `iteration` runs one analysis (or one untraced run and one
  /// traced pass) and returns only when it is done; the loop stops once the
  /// window has passed.
  template <typename Fn>
  void closed_loop(Fn&& iteration) {
    const double start = wall_seconds();
    do {
      maybe_setup(start);
      iteration();
    } while (wall_seconds() < start + o_.seconds);
    while (setups_.size() < (o_.toy ? 2u : 5u)) {
      add_setup(setup_dataset(w_, o_.seed, sample_dir(), nullptr));
    }
    std::cout << "# set-ups: " << setups_.size() << ", median " << median(setup_totals())
              << " s (generate " << median(setup_column([](auto& t) { return t.generate_s; }))
              << ", create " << median(setup_column([](auto& t) { return t.create_s; }))
              << ", open " << median(setup_column([](auto& t) { return t.open_s; })) << ")\n";
  }

  bool check(const char* what, const RunSample& s) {
    ++attempted_;
    if (!s.ok) {
      ++failed_;
      std::cout << "# " << what << " FAILED: " << s.error << "\n";
    }
    return s.ok;
  }

  /// Time per ROI origin of a run of `analyses` side-by-side analyses.
  double per_roi_us(double seconds, int analyses) const {
    return seconds * 1e6 / static_cast<double>(w_.roi_origins() * analyses);
  }

  void measure() {
    std::vector<double> wall, cpu, rss;
    closed_loop([&] {
      const RunSample s = timed_run(w_, reference_, w_.clients);
      if (!check("run", s)) return;
      wall.push_back(per_roi_us(s.wall_s, w_.clients));
      cpu.push_back(per_roi_us(s.cpu_s, w_.clients));
      rss.push_back(s.peak_rss_mib);
      std::cout << "# run " << wall.size() << ": wall_us_per_roi " << wall.back()
                << " cpu_us_per_roi " << cpu.back() << " (sys "
                << per_roi_us(s.sys_s, w_.clients) << ") peak_rss_mb " << rss.back() << "\n";
    });
    std::cout << "# timed runs: " << wall.size() << " (closed loop, one at a time; "
              << w_.clients << " side-by-side analyses per run)\n";
    const auto row = [](const char* name, const std::vector<double>& v) {
      std::cout << "#   " << name << ": median " << median(v) << "  min "
                << quantile(v, 0.0) << "  max " << quantile(v, 1.0) << "  n " << v.size()
                << "\n";
    };
    row("wall_us_per_roi", wall);
    row("cpu_us_per_roi", cpu);
    row("peak_rss_mb", rss);
    row("setup_s", setup_totals());
    metrics_["wall_us_per_roi"] = median(wall);
    metrics_["cpu_us_per_roi"] = median(cpu);
    metrics_["setup_s"] = median(setup_totals());
    metrics_["peak_rss_mb"] = median(rss);
  }

  void trace() {
    std::map<std::string, std::vector<double>> series;
    int passes = 0;
    closed_loop([&] {
      const RunSample u = timed_run(w_, reference_, 1);
      const TracedPass t = traced_pass(w_, reference_, image_dir_,
                                       passes == 0 ? o_.chrome_trace : std::filesystem::path());
      ++attempted_;
      if (!t.ok) {
        ++failed_;
        std::cout << "# traced pass FAILED: " << t.error << "\n";
      }
      if (!check("untraced run", u) || !t.ok) return;
      ++passes;
      const fs::BottleneckReport report = fs::analyze_bottleneck(u.stats);
      cross_check(pipeline_counts(report), t.counts);

      std::map<std::string, double> m = t.metrics;
      m.merge(fs_metrics(u.stats, report, w_));
      if (w_.simulated) {
        m.merge(sim_metrics(u.stats, m.at("fs.texture.busy_max_over_mean"), u.wall_s,
                            t.kernel_self_s));
      }
      m["trace.cpu_coverage"] = t.layer_self_s / u.cpu_s;
      m["trace.overhead"] = t.cpu_s / u.cpu_s;
      for (const auto& [k, v] : m) series[k].push_back(v);
    });

    metrics_["io.create_s"] = median(setup_column([](auto& t) { return t.create_s; }));
    metrics_["io.open_s"] = median(setup_column([](auto& t) { return t.open_s; }));
    for (const auto& [k, v] : series) metrics_[k] = median(v);
    metrics_["trace.counter_mismatches"] = static_cast<double>(mismatches_);
    std::cout << "# traced passes: " << passes
              << " (one thread, spans around each layer call; medians below)\n";
  }

  /// The traced pass must do exactly the pipeline's work.
  void cross_check(const WorkCounts& pipeline, const WorkCounts& traced) {
    const auto want = pipeline.named();
    const auto got = traced.named();
    bool exact = true;
    for (const auto& [name, v] : want) {
      if (got.at(name) != v) {
        exact = false;
        ++mismatches_;
        std::cout << "# cross-check MISMATCH " << name << ": pipeline " << v << ", traced "
                  << got.at(name) << "\n";
      }
    }
    if (exact && !cross_checked_) {
      std::cout << "# cross-check: exact";
      for (const auto& [name, v] : want) std::cout << " " << name << "=" << v;
      std::cout << "\n";
      cross_checked_ = true;
    }
  }

  double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
  }

  void print_json() const {
    std::cout << "# metrics:\n";
    const bool correct = failed_ == 0 && mismatches_ == 0;
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& d) {
      const auto it = metrics_.find(d.name);
      const double v = it == metrics_.end() ? 0.0 : it->second;
      std::cout << "#   " << d.name << " = " << json_number(v) << " " << d.unit << "\n";
      out += (first ? "\"" : ", \"") + std::string(d.name) + "\": {\"value\": " +
             json_number(v) + ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    };
    if (o_.trace == 1) {
      for (const MetricDef& d : kPerLayer) emit(d);
    } else {
      for (const MetricDef& d : kEndToEnd) emit(d);
    }
    std::cout << out << "}}" << std::endl;
  }

  const Options o_;
  Workload w_;
  std::filesystem::path root_;
  std::filesystem::path image_dir_;
  Volume4<std::uint16_t> volume_;
  FeatureMaps reference_;
  std::vector<SetupTimes> setups_;
  std::map<std::string, double> metrics_;
  int attempted_ = 0;
  int failed_ = 0;
  int mismatches_ = 0;
  bool cross_checked_ = false;
};

}  // namespace
}  // namespace h4d::perfbench

int main(int argc, char** argv) {
  using namespace h4d::perfbench;
  try {
    const Options o = parse_args(argc, argv);
    const BuildState b = build_state();
    print_run_record(o, b);
    if (!b.optimized || !b.sanitizers.empty()) {
      std::cerr << "h4d_perfbench: refusing to measure an unoptimized or sanitizer build\n";
      return 3;
    }
    Runner runner(o, make_workload(o.workload, o.toy));
    return runner.run();
  } catch (const std::exception& e) {
    std::cerr << "h4d_perfbench: " << e.what() << "\n";
    return 2;
  }
}
