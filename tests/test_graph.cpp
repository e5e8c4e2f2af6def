#include "fs/graph.hpp"

#include <gtest/gtest.h>

namespace h4d::fs {
namespace {

class NullFilter final : public Filter {
 public:
  std::string_view name() const override { return "null"; }
};

FilterFactory null_factory() {
  return [] { return std::make_unique<NullFilter>(); };
}

TEST(FilterGraph, AddFilterValidation) {
  FilterGraph g;
  EXPECT_THROW(g.add_filter({"", null_factory(), 1, {}}), std::invalid_argument);
  EXPECT_THROW(g.add_filter({"a", nullptr, 1, {}}), std::invalid_argument);
  EXPECT_THROW(g.add_filter({"a", null_factory(), 0, {}}), std::invalid_argument);
  EXPECT_THROW(g.add_filter({"a", null_factory(), 2, {0}}), std::invalid_argument);
  EXPECT_EQ(g.add_filter({"a", null_factory(), 2, {0, 1}}), 0);
  EXPECT_EQ(g.add_filter({"b", null_factory(), 1, {}}), 1);
}

TEST(FilterGraph, ConnectValidation) {
  FilterGraph g;
  const int a = g.add_filter({"a", null_factory(), 1, {}});
  const int b = g.add_filter({"b", null_factory(), 1, {}});
  EXPECT_THROW(g.connect(a, 0, 99), std::invalid_argument);
  EXPECT_THROW(g.connect(-1, 0, b), std::invalid_argument);
  EXPECT_THROW(g.connect(a, -1, b), std::invalid_argument);
  EXPECT_THROW(g.connect(a, 0, b, Policy::Explicit), std::invalid_argument);  // no route
  EXPECT_NO_THROW(g.connect(a, 0, b, Policy::Explicit,
                            [](const BufferHeader&, int) { return 0; }));
  EXPECT_NO_THROW(g.connect(a, 0, b));
}

TEST(FilterGraph, EdgeQueries) {
  FilterGraph g;
  const int a = g.add_filter({"a", null_factory(), 1, {}});
  const int b = g.add_filter({"b", null_factory(), 1, {}});
  const int c = g.add_filter({"c", null_factory(), 1, {}});
  g.connect(a, 0, b);
  g.connect(a, 1, c);
  g.connect(b, 0, c);

  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(c).size(), 2u);
  EXPECT_TRUE(g.is_source(a));
  EXPECT_FALSE(g.is_source(b));
}

TEST(FilterGraph, ValidateRejectsCycle) {
  FilterGraph g;
  const int a = g.add_filter({"a", null_factory(), 1, {}});
  const int b = g.add_filter({"b", null_factory(), 1, {}});
  g.connect(a, 0, b);
  g.connect(b, 0, a);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(FilterGraph, ValidateRejectsEmpty) {
  FilterGraph g;
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(FilterGraph, ValidateAcceptsDag) {
  FilterGraph g;
  const int a = g.add_filter({"a", null_factory(), 2, {0, 1}});
  const int b = g.add_filter({"b", null_factory(), 3, {}});
  const int c = g.add_filter({"c", null_factory(), 1, {}});
  g.connect(a, 0, b);
  g.connect(b, 0, c);
  g.connect(a, 1, c);
  EXPECT_NO_THROW(g.validate());
}

TEST(FilterSpec, PlacementDefaultsToNodeZero) {
  FilterSpec s{"a", null_factory(), 3, {}};
  EXPECT_EQ(s.node_of_copy(0), 0);
  EXPECT_EQ(s.node_of_copy(2), 0);
  FilterSpec p{"b", null_factory(), 3, {5, 6, 7}};
  EXPECT_EQ(p.node_of_copy(0), 5);
  EXPECT_EQ(p.node_of_copy(2), 7);
}

TEST(RunStats, AggregationHelpers) {
  RunStats s;
  CopyStats a;
  a.filter = "HCC";
  a.busy_seconds = 2.0;
  a.finish_time = 5.0;
  a.meter.bytes_out = 100;
  CopyStats b = a;
  b.busy_seconds = 3.0;
  b.finish_time = 7.0;
  CopyStats other;
  other.filter = "HPC";
  other.busy_seconds = 1.0;
  s.copies = {a, b, other};

  EXPECT_DOUBLE_EQ(s.filter_busy_seconds("HCC"), 5.0);
  EXPECT_DOUBLE_EQ(s.filter_finish_time("HCC"), 7.0);
  EXPECT_EQ(s.total_bytes_out("HCC"), 200);
  EXPECT_DOUBLE_EQ(s.filter_busy_seconds("none"), 0.0);
}

TEST(PolicyNames, AllNamed) {
  EXPECT_EQ(policy_name(Policy::RoundRobin), "round-robin");
  EXPECT_EQ(policy_name(Policy::DemandDriven), "demand-driven");
  EXPECT_EQ(policy_name(Policy::Explicit), "explicit");
}

}  // namespace
}  // namespace h4d::fs
