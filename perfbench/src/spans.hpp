// In-memory span recorder for the traced pass.
//
// The traced pass runs on one thread, so spans nest strictly: the recorder
// keeps a stack of open spans and gives each new span the innermost open one
// as its parent. Spans stay in memory until the pass ends; the per-layer
// metrics are derived from them, and they can be written out as a Chrome
// trace (fs::TraceRecorder) with parent, chunk and ROI count as span args.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace h4d::perfbench {

struct Span {
  int name = 0;             ///< index into SpanRecorder::names()
  int parent = -1;          ///< index of the enclosing span; -1 for the root
  std::int64_t chunk = -1;  ///< chunk id, -1 when the call is not per chunk
  std::int64_t rois = 0;    ///< ROI origins the call covered
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Id of a span name; intern once, outside hot loops.
  int intern(std::string_view name);

  int open(int name, std::int64_t chunk = -1, std::int64_t rois = 0);
  /// Close the innermost open span, which must be `id`.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover. Indexed like spans().
  std::vector<double> self_seconds() const;

  /// Chrome trace of all spans (one process, one thread).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, int name, std::int64_t chunk = -1, std::int64_t rois = 0)
      : rec_(rec), id_(rec.open(name, chunk, rois)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace h4d::perfbench
