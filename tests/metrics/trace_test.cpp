#include "metrics/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace bgpsim::metrics {
namespace {

TraceEvent make(double t, TraceEventKind kind, net::NodeId node = 1,
                net::NodeId peer = 2, const std::string& detail = "d") {
  return TraceEvent{sim::SimTime::seconds(t), kind, node, peer, 0, detail};
}

TEST(TraceRecorder, RecordsInOrder) {
  TraceRecorder t;
  EXPECT_TRUE(t.empty());
  t.record(make(1, TraceEventKind::kUpdateSent));
  t.record(make(2, TraceEventKind::kBestChanged));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.events()[0].kind, TraceEventKind::kUpdateSent);
  EXPECT_EQ(t.events()[1].kind, TraceEventKind::kBestChanged);
}

TEST(TraceRecorder, OfKindFilters) {
  TraceRecorder t;
  t.record(make(1, TraceEventKind::kUpdateSent));
  t.record(make(2, TraceEventKind::kLoopFormed));
  t.record(make(3, TraceEventKind::kUpdateSent));
  EXPECT_EQ(t.of_kind(TraceEventKind::kUpdateSent).size(), 2u);
  EXPECT_EQ(t.of_kind(TraceEventKind::kLoopResolved).size(), 0u);
}

TEST(TraceRecorder, CountsHistogram) {
  TraceRecorder t;
  t.record(make(1, TraceEventKind::kUpdateSent));
  t.record(make(2, TraceEventKind::kUpdateSent));
  t.record(make(3, TraceEventKind::kLoopFormed));
  const auto counts = t.counts();
  EXPECT_EQ(counts.at(TraceEventKind::kUpdateSent), 2u);
  EXPECT_EQ(counts.at(TraceEventKind::kLoopFormed), 1u);
}

TEST(TraceRecorder, CsvFormat) {
  TraceRecorder t;
  t.record(make(1.5, TraceEventKind::kUpdateSent, 3, 4, "announce p0 (3 0)"));
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(),
            "time_s,kind,node,peer,prefix,detail\n"
            "1.5,update_sent,3,4,0,\"announce p0 (3 0)\"\n");
}

TEST(TraceRecorder, CsvEscapesQuotes) {
  TraceRecorder t;
  t.record(make(1, TraceEventKind::kBestChanged, 3, net::kInvalidNode,
                "say \"hi\""));
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_NE(out.str().find("\"say \"\"hi\"\"\""), std::string::npos);
  // Invalid peer renders as an empty cell.
  EXPECT_NE(out.str().find(",3,,0,"), std::string::npos);
}

TEST(TraceRecorder, JsonlFormat) {
  TraceRecorder t;
  t.record(make(2.0, TraceEventKind::kLoopFormed, net::kInvalidNode,
                net::kInvalidNode, "{5 6}"));
  std::ostringstream out;
  t.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t\":2,\"kind\":\"loop_formed\",\"prefix\":0,"
            "\"detail\":\"{5 6}\"}\n");
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder t;
  t.record(make(1, TraceEventKind::kUpdateSent));
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(TraceIntegration, ExperimentPopulatesTrace) {
  TraceRecorder trace;
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 6;
  s.event = core::EventKind::kTdown;
  s.seed = 1;
  s.trace = &trace;
  const auto out = core::run_experiment(s);

  const auto counts = trace.counts();
  EXPECT_EQ(counts.at(TraceEventKind::kEventInjected), 1u);
  EXPECT_GT(counts.at(TraceEventKind::kUpdateSent), 0u);
  EXPECT_GT(counts.at(TraceEventKind::kBestChanged), 0u);
  // Loop events in the trace match the run's loop records (each loop
  // forms once; resolutions may be closed by finalize instead).
  EXPECT_EQ(counts.at(TraceEventKind::kLoopFormed), out.metrics.loops_formed);

  // Trace timestamps are nondecreasing.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_GE(trace.events()[i].at, trace.events()[i - 1].at);
  }

  // A multi-prefix run traces every prefix's loops under its own prefix.
  TraceRecorder table_trace;
  s.prefixes = 4;
  s.trace = &table_trace;
  const auto table_out = core::run_experiment(s);
  const auto formed = table_trace.of_kind(TraceEventKind::kLoopFormed);
  EXPECT_EQ(formed.size(), table_out.metrics.loops_formed);
  std::set<net::Prefix> prefixes;
  for (const auto& e : formed) prefixes.insert(e.prefix);
  EXPECT_EQ(prefixes, (std::set<net::Prefix>{0, 1, 2, 3}));
}

TEST(TraceIntegration, UpdateCountMatchesCollector) {
  TraceRecorder trace;
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 5;
  s.event = core::EventKind::kTdown;
  s.seed = 2;
  s.trace = &trace;
  const auto out = core::run_experiment(s);
  EXPECT_EQ(trace.of_kind(TraceEventKind::kUpdateSent).size(),
            out.metrics.updates_sent_total);
}

}  // namespace
}  // namespace bgpsim::metrics
