// Robustness under repeated and overlapping failures (link flapping).
#include <gtest/gtest.h>

#include "bgp/network.hpp"
#include "metrics/loop_detector.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

class FlapTest : public ::testing::Test {
 protected:
  FlapTest()
      : topo_{topo::make_bclique(4)},  // 8 nodes
        network_{sim_, topo_, config(), net::ProcessingDelay{
                                            sim::SimTime::millis(100),
                                            sim::SimTime::millis(500)},
                 sim::Rng{3}, test::paths(), 1},
        detector_{topo_.node_count()} {
    metrics::LoopDetector::attach(sim_, network_.fibs(), {&detector_, 1});
    direct_ = topo::bclique_tlong_link(topo_, 4);
  }

  static BgpConfig config() {
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    return c;
  }

  void converge() {
    sim_.schedule_at(sim::SimTime::zero(), [&] { network_.originate(0, kP); });
    sim_.run();
    ASSERT_FALSE(network_.busy());
  }

  void drain() {
    sim_.run();
    ASSERT_FALSE(network_.busy());
    ASSERT_EQ(network_.transport().messages_in_flight(), 0u);
  }

  void expect_shortest_paths() {
    const auto dist = topo_.bfs_distances(0);
    for (net::NodeId v = 1; v < topo_.node_count(); ++v) {
      const AsPath* loc = network_.speaker(v).best_path(kP);
      ASSERT_NE(loc, nullptr) << "node " << v;
      EXPECT_EQ(loc->length(), dist[v] + 1) << "node " << v;
    }
  }

  sim::Simulator sim_;
  net::Topology topo_;
  BgpNetwork network_;
  metrics::LoopDetector detector_;
  net::LinkId direct_ = 0;
};

TEST_F(FlapTest, RepeatedFailRestoreCyclesReconverge) {
  converge();
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60),
                     [&] { network_.inject_link_failure(direct_); });
    drain();
    expect_shortest_paths();  // longer paths via the chain

    sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60),
                     [&] { network_.transport().restore_link(direct_); });
    drain();
    expect_shortest_paths();  // back to the direct attachment
  }
  detector_.finalize(sim_.now());
  EXPECT_EQ(detector_.active_count(), 0u);
}

TEST_F(FlapTest, FailureDuringConvergenceIsHandled) {
  converge();
  // Fail the direct link, and while the network is still reconverging,
  // fail a chain link too (then restore it).
  const auto chain_link = *topo_.link_between(1, 2);
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(10),
                   [&] { network_.inject_link_failure(direct_); });
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(12), [&] {
    network_.inject_link_failure(chain_link);
  });
  // With both down the graph is disconnected: 1..3 unreachable side.
  drain();
  // Restore the chain link; everyone reconverges.
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60), [&] {
    network_.transport().restore_link(chain_link);
  });
  drain();
  expect_shortest_paths();
}

TEST_F(FlapTest, RapidFlapWithInFlightMessages) {
  converge();
  // Fail and restore within 50 ms — faster than any processing delay, so
  // session-down and session-up notices queue back to back.
  for (int i = 0; i < 5; ++i) {
    const auto base = sim_.now() + sim::SimTime::seconds(10);
    sim_.schedule_at(base, [&] { network_.inject_link_failure(direct_); });
    sim_.schedule_at(base + sim::SimTime::millis(50),
                     [&] { network_.transport().restore_link(direct_); });
    drain();
    expect_shortest_paths();
  }
}

TEST_F(FlapTest, NodeFailureIsolatesAndRecovers) {
  converge();
  // Take down every link of clique node 5 (a transit for nobody critical).
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(10),
                   [&] { network_.transport().fail_node(5); });
  drain();
  // 5 is isolated: no route. Everyone else still converges correctly.
  EXPECT_EQ(network_.speaker(5).best_path(kP), nullptr);
  const auto dist = topo_.bfs_distances(0);
  for (net::NodeId v = 1; v < topo_.node_count(); ++v) {
    if (v == 5) continue;
    const AsPath* loc = network_.speaker(v).best_path(kP);
    ASSERT_NE(loc, nullptr) << "node " << v;
    EXPECT_EQ(loc->length(), dist[v] + 1) << "node " << v;
  }
  // Bring the node back.
  for (net::LinkId l : topo_.links_of(5)) {
    sim_.schedule_at(sim_.now() + sim::SimTime::seconds(30),
                     [&, l] { network_.transport().restore_link(l); });
  }
  drain();
  expect_shortest_paths();
}

TEST_F(FlapTest, SimultaneousDualFailure) {
  converge();
  const auto chain_link = *topo_.link_between(2, 3);
  const auto when = sim_.now() + sim::SimTime::seconds(10);
  sim_.schedule_at(when, [&] { network_.inject_link_failure(direct_); });
  sim_.schedule_at(when, [&] { network_.inject_link_failure(chain_link); });
  drain();
  // Nodes 1, 2 can still reach 0 (via the chain head); 3.. cannot... check
  // against BFS ground truth rather than hand-derived expectations.
  const auto dist = topo_.bfs_distances(0);
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  for (net::NodeId v = 1; v < topo_.node_count(); ++v) {
    const AsPath* loc = network_.speaker(v).best_path(kP);
    if (dist[v] == kUnreached) {
      EXPECT_EQ(loc, nullptr) << "node " << v;
    } else {
      ASSERT_NE(loc, nullptr) << "node " << v;
      EXPECT_EQ(loc->length(), dist[v] + 1) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace bgpsim::bgp
