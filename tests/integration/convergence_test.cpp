// Whole-network convergence tests over BgpNetwork.
#include <gtest/gtest.h>

#include "bgp/network.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

/// Build a network with fast, deterministic processing so tests converge in
/// simulated milliseconds.
struct Harness {
  explicit Harness(net::Topology topology, BgpConfig config = quick_config())
      : topo{std::move(topology)},
        network{sim, topo, config, net::ProcessingDelay{sim::SimTime::millis(1),
                                                        sim::SimTime::millis(1)},
                sim::Rng{42}, test::paths(), /*prefixes=*/2} {}

  static BgpConfig quick_config() {
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    c.jitter_lo = 1.0;
    c.jitter_hi = 1.0;
    return c;
  }

  /// Originate at `origin` and run to full drain.
  void converge(net::NodeId origin) {
    sim.schedule_at(sim::SimTime::zero(),
                    [&, origin] { network.originate(origin, kP); });
    sim.run();
    ASSERT_FALSE(network.busy());
  }

  const AsPath* loc(net::NodeId n) { return network.speaker(n).best_path(kP); }

  sim::Simulator sim;
  net::Topology topo;
  BgpNetwork network;
};

TEST(Convergence, ChainConvergesToShortestPaths) {
  Harness h{topo::make_chain(5)};
  h.converge(0);
  ASSERT_NE(h.loc(4), nullptr);
  EXPECT_EQ(*h.loc(4), test::path_of({4, 3, 2, 1, 0}));
  EXPECT_EQ(*h.loc(1), test::path_of({1, 0}));
  EXPECT_EQ(h.network.fibs()[4].next_hop(kP), 3u);
}

TEST(Convergence, CliqueConvergesToDirectPaths) {
  Harness h{topo::make_clique(6)};
  h.converge(0);
  for (net::NodeId n = 1; n < 6; ++n) {
    ASSERT_NE(h.loc(n), nullptr) << "node " << n;
    EXPECT_EQ(*h.loc(n), test::path_of({n, 0})) << "node " << n;
    EXPECT_EQ(h.network.fibs()[n].next_hop(kP), 0u);
  }
}

TEST(Convergence, RingUsesShorterSide) {
  Harness h{topo::make_ring(6)};
  h.converge(0);
  EXPECT_EQ(*h.loc(1), test::path_of({1, 0}));
  EXPECT_EQ(*h.loc(5), test::path_of({5, 0}));
  EXPECT_EQ(*h.loc(2), test::path_of({2, 1, 0}));
  // Node 3 is equidistant; tie-break picks the smaller next hop (2).
  EXPECT_EQ(*h.loc(3), test::path_of({3, 2, 1, 0}));
}

TEST(Convergence, BCliqueInitialRoutesUseDirectAttachment) {
  const std::size_t n = 5;
  Harness h{topo::make_bclique(n)};
  h.converge(0);
  // Clique node n reaches 0 directly; other clique nodes go through n.
  EXPECT_EQ(*h.loc(5), test::path_of({5, 0}));
  EXPECT_EQ(*h.loc(7), test::path_of({7, 5, 0}));
  // Chain node 4 goes down the chain (4 hops) rather than through the
  // clique (4 -> 9 -> 5 -> 0 is 3 hops!). Check actual shortest: via 9 it
  // is (4 9 5 0), length 4 == chain path (4 3 2 1 0) length 5 -> clique.
  EXPECT_EQ(*h.loc(4), test::path_of({4, 9, 5, 0}));
}

TEST(Convergence, TdownLeavesEveryoneUnreachable) {
  Harness h{topo::make_clique(5)};
  h.converge(0);
  h.sim.schedule_at(h.sim.now() + sim::SimTime::seconds(100),
                    [&] { h.network.inject_tdown(0, kP); });
  h.sim.run();
  EXPECT_FALSE(h.network.busy());
  for (net::NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(h.loc(n), nullptr) << "node " << n;
    EXPECT_FALSE(h.network.fibs()[n].next_hop(kP).has_value());
  }
  // The origin no longer originates.
  EXPECT_EQ(h.loc(0), nullptr);
}

TEST(Convergence, TlongRespondsWithLongerPaths) {
  const std::size_t n = 4;
  Harness h{topo::make_bclique(n)};
  h.converge(0);
  const net::LinkId failed = topo::bclique_tlong_link(h.topo, n);
  h.sim.schedule_at(h.sim.now() + sim::SimTime::seconds(100),
                    [&] { h.network.inject_link_failure(failed); });
  h.sim.run();
  EXPECT_FALSE(h.network.busy());
  // Every node still reaches 0, now over the chain.
  for (net::NodeId v = 1; v < 2 * n; ++v) {
    ASSERT_NE(h.loc(v), nullptr) << "node " << v;
    EXPECT_EQ(h.loc(v)->origin(), 0u);
  }
  // Node n (=4) must now route via the clique to the chain tail.
  EXPECT_EQ(*h.loc(4), test::path_of({4, 7, 3, 2, 1, 0}));
}

TEST(Convergence, FinalPathsMatchBfsDistances) {
  Harness h{topo::make_grid(3, 3)};
  h.converge(0);
  const auto dist = h.topo.bfs_distances(0);
  for (net::NodeId v = 1; v < h.topo.node_count(); ++v) {
    ASSERT_NE(h.loc(v), nullptr);
    // Loc path includes self and origin: length == hops + 1.
    EXPECT_EQ(h.loc(v)->length(), dist[v] + 1) << "node " << v;
  }
}

TEST(Convergence, MessageCountsAreConsistent) {
  Harness h{topo::make_clique(5)};
  h.converge(0);
  const auto c = h.network.total_counters();
  EXPECT_EQ(c.announcements_sent + c.withdrawals_sent, c.updates_received);
  EXPECT_EQ(h.network.transport().messages_in_flight(), 0u);
}

TEST(Convergence, SecondPrefixIndependent) {
  Harness h{topo::make_chain(4)};
  h.converge(0);
  h.sim.schedule_at(h.sim.now() + sim::SimTime::seconds(60),
                    [&] { h.network.originate(3, 1); });
  h.sim.run();
  ASSERT_NE(h.network.speaker(0).best_path(1), nullptr);
  EXPECT_EQ(*h.network.speaker(0).best_path(1),
            test::path_of({0, 1, 2, 3}));
  // Prefix 0 unchanged.
  EXPECT_EQ(*h.loc(3), test::path_of({3, 2, 1, 0}));
}

TEST(Convergence, LinkRestoreReconverges) {
  const std::size_t n = 4;
  Harness h{topo::make_bclique(n)};
  h.converge(0);
  const net::LinkId link = topo::bclique_tlong_link(h.topo, n);
  h.sim.schedule_at(h.sim.now() + sim::SimTime::seconds(100),
                    [&] { h.network.inject_link_failure(link); });
  h.sim.run();
  h.sim.schedule_at(h.sim.now() + sim::SimTime::seconds(100),
                    [&] { h.network.transport().restore_link(link); });
  h.sim.run();
  EXPECT_FALSE(h.network.busy());
  // Direct path restored.
  EXPECT_EQ(*h.loc(4), test::path_of({4, 0}));
}

}  // namespace
}  // namespace bgpsim::bgp
