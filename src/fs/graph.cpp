#include "fs/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace h4d::fs {

std::string_view policy_name(Policy p) {
  switch (p) {
    case Policy::RoundRobin: return "round-robin";
    case Policy::DemandDriven: return "demand-driven";
    case Policy::Explicit: return "explicit";
  }
  return "?";
}

int FilterGraph::add_filter(FilterSpec spec) {
  if (spec.name.empty()) throw std::invalid_argument("add_filter: name required");
  if (!spec.factory) throw std::invalid_argument("add_filter: factory required");
  if (spec.copies < 1) throw std::invalid_argument("add_filter: copies must be >= 1");
  if (!spec.placement.empty() &&
      static_cast<int>(spec.placement.size()) != spec.copies) {
    throw std::invalid_argument("add_filter: placement size must equal copies");
  }
  filters_.push_back(std::move(spec));
  return static_cast<int>(filters_.size()) - 1;
}

void FilterGraph::connect(int from, int port, int to, Policy policy, RouteFn route) {
  if (from < 0 || from >= static_cast<int>(filters_.size()) || to < 0 ||
      to >= static_cast<int>(filters_.size())) {
    throw std::invalid_argument("connect: dangling endpoint");
  }
  if (port < 0) throw std::invalid_argument("connect: negative port");
  if (policy == Policy::Explicit && !route) {
    throw std::invalid_argument("connect: Explicit policy requires a route function");
  }
  edges_.push_back(EdgeSpec{from, port, to, policy, std::move(route)});
}

std::vector<int> FilterGraph::out_edges(int filter) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].from == filter) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> FilterGraph::in_edges(int filter) const {
  std::vector<int> in;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].to == filter) in.push_back(static_cast<int>(i));
  }
  return in;
}

void FilterGraph::validate() const {
  if (filters_.empty()) throw std::invalid_argument("validate: empty graph");
  // Cycle check: Kahn's algorithm over filter groups.
  std::vector<int> indeg(filters_.size(), 0);
  for (const EdgeSpec& e : edges_) indeg[static_cast<std::size_t>(e.to)]++;
  std::vector<int> ready;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const int f = ready.back();
    ready.pop_back();
    ++seen;
    for (const int e : out_edges(f)) {
      if (--indeg[static_cast<std::size_t>(edges_[static_cast<std::size_t>(e)].to)] == 0) {
        ready.push_back(edges_[static_cast<std::size_t>(e)].to);
      }
    }
  }
  if (seen != filters_.size()) {
    throw std::invalid_argument("validate: filter graph contains a cycle");
  }
}

double RunStats::filter_busy_seconds(std::string_view filter) const {
  double s = 0.0;
  for (const CopyStats& c : copies) {
    if (c.filter == filter) s += c.busy_seconds;
  }
  return s;
}

double RunStats::filter_finish_time(std::string_view filter) const {
  double s = 0.0;
  for (const CopyStats& c : copies) {
    if (c.filter == filter) s = std::max(s, c.finish_time);
  }
  return s;
}

std::int64_t RunStats::total_bytes_out(std::string_view filter) const {
  std::int64_t s = 0;
  for (const CopyStats& c : copies) {
    if (c.filter == filter) s += c.meter.bytes_out;
  }
  return s;
}

}  // namespace h4d::fs
