// End-to-end tests of the experiment driver (core::run_experiment).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "sim/env.hpp"

namespace bgpsim::core {
namespace {

Scenario small_clique_tdown() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.seed = 1;
  return s;
}

TEST(Experiment, CliqueTdownProducesLooping) {
  const auto out = run_experiment(small_clique_tdown());
  const auto& m = out.metrics;
  EXPECT_GT(m.convergence_time_s, 10.0);
  EXPECT_GT(m.ttl_exhaustions, 0u);
  EXPECT_GT(m.looping_ratio, 0.1);
  EXPECT_GT(m.loops_formed, 0u);
  // The paper's core observation: looping spans most of convergence.
  EXPECT_GT(m.looping_duration_s, 0.5 * m.convergence_time_s);
  EXPECT_LE(m.looping_duration_s, m.convergence_time_s + 1.0);
}

TEST(Experiment, MetricsInternallyConsistent) {
  const auto out = run_experiment(small_clique_tdown());
  const auto& m = out.metrics;
  EXPECT_LE(m.ttl_exhaustions,
            m.packets_sent_total);
  EXPECT_LE(m.packets_sent_during_convergence, m.packets_sent_total);
  // Every injected packet has exactly one fate.
  EXPECT_EQ(m.packets_sent_total,
            m.packets_delivered + m.ttl_exhaustions + m.packets_no_route +
                m.packets_link_down);
  EXPECT_GE(m.last_update_at, m.event_at);
  if (m.ttl_exhaustions > 0) {
    EXPECT_GE(m.first_exhaustion_at, m.event_at);
    EXPECT_GE(m.last_exhaustion_at, m.first_exhaustion_at);
  }
}

TEST(Experiment, LoopingRatioMatchesDefinition) {
  const auto out = run_experiment(small_clique_tdown());
  const auto& m = out.metrics;
  ASSERT_GT(m.packets_sent_during_convergence, 0u);
  EXPECT_DOUBLE_EQ(m.looping_ratio,
                   static_cast<double>(m.ttl_exhaustions) /
                       static_cast<double>(m.packets_sent_during_convergence));
}

TEST(Experiment, TlongKeepsDestinationReachable) {
  Scenario s;
  s.topology.kind = TopologyKind::kBClique;
  s.topology.size = 6;
  s.event = EventKind::kTlong;
  s.seed = 2;
  const auto out = run_experiment(s);
  ASSERT_TRUE(out.failed_link.has_value());
  EXPECT_GT(out.metrics.convergence_time_s, 1.0);
  // Traffic keeps flowing after reconvergence: deliveries exist.
  EXPECT_GT(out.metrics.packets_delivered, 0u);
}

TEST(Experiment, TupAnnouncementDoesNotLoop) {
  Scenario s = small_clique_tdown();
  s.event = EventKind::kTup;
  const auto out = run_experiment(s);
  // Announcing into a quiet network: convergence happens (updates spread)
  // but there is no obsolete state to loop on.
  EXPECT_GT(out.metrics.convergence_time_s, 0.0);
  EXPECT_EQ(out.metrics.loops_formed, 0u);
  EXPECT_EQ(out.metrics.ttl_exhaustions, 0u);
  // Traffic that started before the event black-holes, then delivers.
  EXPECT_GT(out.metrics.packets_no_route, 0u);
  EXPECT_GT(out.metrics.packets_delivered, 0u);
}

TEST(Experiment, TdownHasNoFailedLink) {
  const auto out = run_experiment(small_clique_tdown());
  EXPECT_FALSE(out.failed_link.has_value());
  EXPECT_EQ(out.destination, 0u);
}

TEST(Experiment, InternetDestinationHasLowestDegree) {
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 29;
  s.topology.topo_seed = 5;
  s.event = EventKind::kTdown;
  s.seed = 5;
  const auto out = run_experiment(s);
  const auto topo = s.topology.build();
  std::size_t min_degree = topo.node_count();
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    min_degree = std::min(min_degree, topo.degree(n));
  }
  EXPECT_EQ(topo.degree(out.destination), min_degree);
}

TEST(Experiment, ExplicitDestinationHonored) {
  Scenario s = small_clique_tdown();
  s.destination = 3;
  const auto out = run_experiment(s);
  EXPECT_EQ(out.destination, 3u);
}

TEST(Experiment, ExplicitTlongLinkHonored) {
  Scenario s;
  s.topology.kind = TopologyKind::kBClique;
  s.topology.size = 4;
  s.event = EventKind::kTlong;
  s.tlong_link = 1;  // a chain link; keeps graph connected
  const auto out = run_experiment(s);
  EXPECT_EQ(out.failed_link, 1u);
}

TEST(Experiment, InvalidSettleMarginThrows) {
  Scenario s = small_clique_tdown();
  s.settle_margin = sim::SimTime::seconds(1);
  s.traffic_lead = sim::SimTime::seconds(2);
  EXPECT_THROW(run_experiment(s), std::invalid_argument);
}

TEST(Experiment, ZeroMraiStillConverges) {
  Scenario s = small_clique_tdown();
  s.bgp.mrai = sim::SimTime::zero();
  const auto out = run_experiment(s);
  // Without MRAI delays, convergence is driven by processing delays only
  // and is dramatically faster.
  EXPECT_LT(out.metrics.convergence_time_s, 30.0);
}

TEST(Sweep, TrialsVarySeedsAndAggregate) {
  const TrialSet set =
      run_trials(small_clique_tdown(), RunOptions{.trials = 3, .jobs = 1});
  ASSERT_EQ(set.runs.size(), 3u);
  EXPECT_EQ(set.convergence_time_s.n, 3u);
  EXPECT_GT(set.convergence_time_s.mean, 0.0);
  // Jitter should make trials differ.
  EXPECT_GT(set.convergence_time_s.stddev, 0.0);
}

TEST(Sweep, EnvOverrideParses) {
  ::setenv("BGPSIM_TEST_ENV_KNOB", "17", 1);
  EXPECT_EQ(sim::env_u64_or("BGPSIM_TEST_ENV_KNOB", 3), 17u);
  ::setenv("BGPSIM_TEST_ENV_KNOB", "junk", 1);
  EXPECT_EQ(sim::env_u64_or("BGPSIM_TEST_ENV_KNOB", 3), 3u);
  ::unsetenv("BGPSIM_TEST_ENV_KNOB");
  EXPECT_EQ(sim::env_u64_or("BGPSIM_TEST_ENV_KNOB", 3), 3u);
}

}  // namespace
}  // namespace bgpsim::core
