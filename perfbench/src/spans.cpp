#include "spans.hpp"

#include <algorithm>
#include <stdexcept>

#include "fs/trace.hpp"

namespace h4d::perfbench {

SpanRecorder::SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int SpanRecorder::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.emplace_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::open(int name, std::int64_t chunk, std::int64_t rois) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.chunk = chunk;
  s.rois = rois;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

void SpanRecorder::write_chrome_trace(const std::filesystem::path& path) const {
  fs::TraceRecorder trace;
  trace.set_process_name(0, "perfbench traced pass");
  trace.set_thread_name(0, 0, "main");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    trace.span(0, 0, names_[static_cast<std::size_t>(s.name)],
               static_cast<double>(s.start_ns) * 1e-9, s.seconds(),
               {{"id", static_cast<std::int64_t>(i)},
                {"parent", s.parent},
                {"chunk", s.chunk},
                {"rois", s.rois}});
  }
  fs::write_trace_file(path, trace);
}

}  // namespace h4d::perfbench
