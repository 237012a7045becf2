// End-to-end distance-vector baseline: convergence, counting-to-infinity,
// and the loop-detection contrast with path vector (paper §2/§6).
#include <gtest/gtest.h>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "dv/network.hpp"
#include "metrics/loop_detector.hpp"
#include "topo/generators.hpp"

namespace bgpsim {
namespace {

constexpr net::Prefix kP = 0;

/// Triggered-only: quiesces, good for plain convergence checks.
dv::DvConfig triggered_only() {
  dv::DvConfig c;
  c.periodic = sim::SimTime::zero();
  c.triggered_delay_lo = sim::SimTime::seconds(1);
  c.triggered_delay_hi = sim::SimTime::seconds(1);
  return c;
}

/// Periodic-only (the textbook counting-to-infinity setting): staleness is
/// re-advertised every refresh, so poisons race stale refreshes.
dv::DvConfig periodic_only() {
  dv::DvConfig c;
  c.triggered = false;
  c.periodic = sim::SimTime::seconds(10);
  return c;
}

TEST(DvNetwork, ChainConvergesToHopCounts) {
  sim::Simulator sim;
  auto topo = topo::make_chain(5);
  dv::DvNetwork network{sim, topo, triggered_only(),
                        net::ProcessingDelay{sim::SimTime::millis(1),
                                             sim::SimTime::millis(1)},
                        sim::Rng{3}};
  sim.schedule_at(sim::SimTime::zero(), [&] { network.originate(0, kP); });
  sim.run();
  ASSERT_FALSE(network.busy());
  for (net::NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(network.speaker(v).metric(kP), static_cast<int>(v));
    EXPECT_EQ(network.speaker(v).next_hop(kP), v - 1);
    EXPECT_EQ(network.fibs()[v].next_hop(kP), v - 1);
  }
}

TEST(DvNetwork, TdownTriggersCleanPoisonOnChain) {
  // Triggered-only on a chain: the poison wave outruns any staleness (no
  // periodic carrier), so the withdrawal converges without loops.
  sim::Simulator sim;
  auto topo = topo::make_chain(4);
  dv::DvNetwork network{sim, topo, triggered_only(),
                        net::ProcessingDelay{sim::SimTime::millis(1),
                                             sim::SimTime::millis(1)},
                        sim::Rng{3}};
  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(sim, network.fibs(), {&detector, 1});
  sim.schedule_at(sim::SimTime::zero(), [&] { network.originate(0, kP); });
  sim.run();
  detector.clear_history();
  sim.schedule_at(sim.now() + sim::SimTime::seconds(5),
                  [&] { network.inject_tdown(0, kP); });
  sim.run();
  detector.finalize(sim.now());
  EXPECT_TRUE(detector.records().empty());
  for (net::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(network.speaker(v).metric(kP).has_value()) << "node " << v;
  }
}

TEST(DvNetwork, TdownCountsToInfinityOnCliqueUnderPeriodicRefresh) {
  // Periodic-only refresh on a clique: every neighbor is a carrier of
  // stale reachability, so after the origin withdraws, metrics count up to
  // infinity while transient forwarding loops churn — the distance-vector
  // pathology the paper's §2 reviews. (Poison reverse cannot help: the
  // loop-forming advertisements were sent *before* the failure, when the
  // split-horizon filter did not apply — staleness again.)
  core::DvScenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 10;
  s.event = core::EventKind::kTdown;
  s.dv = periodic_only();
  s.seed = 1;
  const auto out = core::run_dv_experiment(s);
  // Counting takes many refresh rounds...
  EXPECT_GT(out.metrics.convergence_time_s, 30.0);
  // ...with real forwarding loops catching real packets.
  EXPECT_GT(out.metrics.loops_formed, 0u);
  EXPECT_GT(out.metrics.ttl_exhaustions, 100u);
  EXPECT_GT(out.metrics.looping_duration_s, 10.0);
}

TEST(DvNetwork, NoSplitHorizonAllowsTwoNodeLoops) {
  // Without split horizon even a loop-free chain bounces: node 2 echoes
  // node 1's own route back, and they count to infinity pairwise.
  sim::Simulator sim;
  auto topo = topo::make_chain(3);
  dv::DvConfig config = periodic_only();
  config.split_horizon = false;
  config.poison_reverse = false;
  dv::DvNetwork network{sim, topo, config,
                        net::ProcessingDelay{sim::SimTime::millis(1),
                                             sim::SimTime::millis(1)},
                        sim::Rng{3}};
  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(sim, network.fibs(), {&detector, 1});

  sim.schedule_at(sim::SimTime::zero(), [&] { network.originate(0, kP); });
  sim.run_until(sim::SimTime::seconds(60));
  detector.clear_history();
  sim.schedule_at(sim::SimTime::seconds(65),
                  [&] { network.inject_tdown(0, kP); });
  sim.run_until(sim::SimTime::seconds(600));
  detector.finalize(sim.now());

  bool saw_two_node = false;
  for (const auto& r : detector.records()) {
    if (r.size() == 2) saw_two_node = true;
  }
  EXPECT_TRUE(saw_two_node);
  for (net::NodeId v = 0; v < 3; ++v) {
    EXPECT_FALSE(network.speaker(v).metric(kP).has_value()) << "node " << v;
  }
}

TEST(DvNetwork, SplitHorizonPreventsTwoNodeLoops) {
  // Same chain, poison reverse on: the 2-node bounce is impossible, and on
  // a loop-free topology the withdrawal converges without any loop.
  sim::Simulator sim;
  auto topo = topo::make_chain(3);
  dv::DvNetwork network{sim, topo, periodic_only(),
                        net::ProcessingDelay{sim::SimTime::millis(1),
                                             sim::SimTime::millis(1)},
                        sim::Rng{3}};
  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(sim, network.fibs(), {&detector, 1});
  sim.schedule_at(sim::SimTime::zero(), [&] { network.originate(0, kP); });
  sim.run_until(sim::SimTime::seconds(60));
  detector.clear_history();
  sim.schedule_at(sim::SimTime::seconds(65),
                  [&] { network.inject_tdown(0, kP); });
  sim.run_until(sim::SimTime::seconds(600));
  detector.finalize(sim.now());
  EXPECT_TRUE(detector.records().empty());
  for (net::NodeId v = 0; v < 3; ++v) {
    EXPECT_FALSE(network.speaker(v).metric(kP).has_value()) << "node " << v;
  }
}

TEST(DvExperiment, DriverProducesComparableMetrics) {
  core::DvScenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 10;
  s.event = core::EventKind::kTdown;
  s.dv = periodic_only();
  s.seed = 1;
  const auto out = core::run_dv_experiment(s);
  EXPECT_GT(out.metrics.convergence_time_s, 0.0);
  EXPECT_GT(out.metrics.loops_formed, 0u);
  EXPECT_GT(out.metrics.ttl_exhaustions, 0u);
  // Fate conservation holds on the shared data plane.
  EXPECT_EQ(out.metrics.packets_sent_total,
            out.metrics.packets_delivered + out.metrics.ttl_exhaustions +
                out.metrics.packets_no_route + out.metrics.packets_link_down);
  // Looping ratio follows its definition.
  if (out.metrics.packets_sent_during_convergence > 0) {
    EXPECT_DOUBLE_EQ(
        out.metrics.looping_ratio,
        static_cast<double>(out.metrics.ttl_exhaustions) /
            static_cast<double>(out.metrics.packets_sent_during_convergence));
  }
}

TEST(DvExperiment, TriggeredOnlyModeQuiesces) {
  core::DvScenario s;
  s.topology.kind = core::TopologyKind::kChain;
  s.topology.size = 5;
  s.event = core::EventKind::kTdown;
  s.dv = triggered_only();
  s.seed = 5;
  const auto out = core::run_dv_experiment(s);
  EXPECT_GT(out.metrics.convergence_time_s, 0.0);
  EXPECT_EQ(out.metrics.loops_formed, 0u);  // chain + poison wave
}

TEST(DvExperiment, RejectsNoPropagationMode) {
  core::DvScenario s;
  s.topology.kind = core::TopologyKind::kRing;
  s.topology.size = 4;
  s.dv.periodic = sim::SimTime::zero();
  s.dv.triggered = false;
  EXPECT_THROW(core::run_dv_experiment(s), std::invalid_argument);
}

TEST(DvVsPv, CountingScalesWithInfinityUnlikePathVector) {
  // The distance-vector signature (paper §2): transient looping lasts as
  // long as the counting takes, i.e. it scales with the `infinity`
  // parameter. Path vector has no such parameter — its loop duration is
  // bounded by path propagation, (m-1) x MRAI (checked by the LoopBound
  // property suite).
  const auto run_with_infinity = [](int infinity) {
    core::DvScenario s;
    s.topology.kind = core::TopologyKind::kClique;
    s.topology.size = 10;
    s.event = core::EventKind::kTdown;
    s.dv = periodic_only();
    s.dv.infinity = infinity;
    s.seed = 1;
    return core::run_dv_experiment(s).metrics;
  };
  const auto m8 = run_with_infinity(8);
  const auto m16 = run_with_infinity(16);
  const auto m32 = run_with_infinity(32);

  ASSERT_GT(m16.loops_formed, 0u);
  // Convergence time ~ counting rounds ~ infinity.
  EXPECT_GT(m16.convergence_time_s, 1.2 * m8.convergence_time_s);
  EXPECT_GT(m32.convergence_time_s, 1.5 * m16.convergence_time_s);
  // And the looping persists throughout the counting.
  EXPECT_GT(m32.looping_duration_s, 1.5 * m16.looping_duration_s);
  EXPECT_GT(m32.ttl_exhaustions, m16.ttl_exhaustions);
}

}  // namespace
}  // namespace bgpsim
