// Reproduces the paper's Figure 1 walkthrough exactly: the 2-node transient
// loop between nodes 5 and 6 after link [4 0] fails, and its resolution via
// path-based poison reverse.
#include <gtest/gtest.h>

#include "bgp/network.hpp"
#include "metrics/loop_detector.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

/// The Figure 1 topology: destination at node 0; node 4 directly attached;
/// nodes 5 and 6 hang off node 4 (and each other); node 6 also has the long
/// backup (6 3 2 1 0).
net::Topology figure1_topology() {
  net::Topology t{7};
  t.add_link(0, 1);
  t.add_link(1, 2);
  t.add_link(2, 3);
  t.add_link(3, 6);
  t.add_link(0, 4);
  t.add_link(4, 5);
  t.add_link(4, 6);
  t.add_link(5, 6);
  return t;
}

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : topo_{figure1_topology()},
        network_{sim_, topo_, config(), net::ProcessingDelay{
                                            sim::SimTime::millis(100),
                                            sim::SimTime::millis(500)},
                 sim::Rng{7}, test::paths(), 1},
        detector_{topo_.node_count()} {
    metrics::LoopDetector::attach(sim_, network_.fibs(), {&detector_, 1});
  }

  static BgpConfig config() {
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    return c;
  }

  const AsPath* loc(net::NodeId n) {
    return network_.speaker(n).best_path(kP);
  }

  void converge_initially() {
    sim_.schedule_at(sim::SimTime::zero(),
                     [&] { network_.originate(0, kP); });
    sim_.run();
    ASSERT_FALSE(network_.busy());
  }

  sim::Simulator sim_;
  net::Topology topo_;
  BgpNetwork network_;
  metrics::LoopDetector detector_;
};

TEST_F(Figure1Test, InitialStateMatchesFigure1a) {
  converge_initially();
  // Figure 1(a): starred best paths.
  ASSERT_NE(loc(4), nullptr);
  EXPECT_EQ(*loc(4), test::path_of({4, 0}));
  EXPECT_EQ(*loc(5), test::path_of({5, 4, 0}));
  EXPECT_EQ(*loc(6), test::path_of({6, 4, 0}));
  // And the backups listed in the figure sit in the Adj-RIB-Ins.
  const AsPath* five_via_six = network_.speaker(5).adj_route(kP, 6);
  ASSERT_NE(five_via_six, nullptr);
  EXPECT_EQ(*five_via_six, test::path_of({6, 4, 0}));
  const AsPath* six_via_three = network_.speaker(6).adj_route(kP, 3);
  ASSERT_NE(six_via_three, nullptr);
  EXPECT_EQ(*six_via_three, test::path_of({3, 2, 1, 0}));
  // No loops during/after initial convergence in this topology run.
  detector_.finalize(sim_.now());
  EXPECT_EQ(detector_.active_count(), 0u);
}

TEST_F(Figure1Test, TransientLoopFormsAndResolves) {
  converge_initially();
  detector_.clear_history();

  const auto link40 = topo_.link_between(4, 0);
  ASSERT_TRUE(link40.has_value());
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(5),
                   [&] { network_.inject_link_failure(*link40); });
  sim_.run();
  ASSERT_FALSE(network_.busy());
  detector_.finalize(sim_.now());

  // Figure 1(b): the 5<->6 loop formed...
  bool saw_56_loop = false;
  for (const auto& r : detector_.records()) {
    if (r.members == std::vector<net::NodeId>{5, 6}) saw_56_loop = true;
  }
  EXPECT_TRUE(saw_56_loop);

  // ...and Figure 1(c): it resolved — final routes use the long path.
  EXPECT_EQ(detector_.active_count(), 0u);
  ASSERT_NE(loc(6), nullptr);
  EXPECT_EQ(*loc(6), test::path_of({6, 3, 2, 1, 0}));
  ASSERT_NE(loc(5), nullptr);
  EXPECT_EQ(*loc(5), test::path_of({5, 6, 3, 2, 1, 0}));
  ASSERT_NE(loc(4), nullptr);
  EXPECT_EQ(*loc(4), test::path_of({4, 6, 3, 2, 1, 0}));
}

TEST_F(Figure1Test, LoopMembersPickedObsoletePaths) {
  // Sanity on the mechanism: right after the withdrawal, 5 holds the
  // obsolete (6 4 0) entry from 6 and adopts it — the paper's §3.3 point
  // that full path information does not prevent picking obsolete paths.
  converge_initially();
  const auto link40 = topo_.link_between(4, 0);
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(5),
                   [&] { network_.inject_link_failure(*link40); });

  bool five_adopted_obsolete = false;
  network_.set_hooks(Speaker::Hooks{
      .on_update_sent = nullptr,
      .on_best_changed =
          [&](net::NodeId node, net::Prefix, const std::optional<AsPath>& best) {
            if (node == 5 && best && *best == test::path_of({5, 6, 4, 0})) {
              five_adopted_obsolete = true;
            }
          },
  });
  sim_.run();
  EXPECT_TRUE(five_adopted_obsolete);
}

TEST_F(Figure1Test, SsldShortensTheLoop) {
  // With SSLD (paper §5): node 5 would send a withdrawal instead of
  // (5 6 4 0) to node 6 — MRAI-exempt — so the loop's resolution no longer
  // waits on an announcement. The loop should resolve strictly faster or
  // equally fast in message count terms; here we check SSLD conversions
  // actually fire in this scenario.
  sim::Simulator sim2;
  net::Topology topo2 = figure1_topology();
  BgpNetwork net2{sim2, topo2, config().with(Enhancement::kSsld),
                  net::ProcessingDelay{sim::SimTime::millis(100),
                                       sim::SimTime::millis(500)},
                  sim::Rng{7}, test::paths(), 1};
  sim2.schedule_at(sim::SimTime::zero(), [&] { net2.originate(0, kP); });
  sim2.run();
  const auto link40 = topo2.link_between(4, 0);
  sim2.schedule_at(sim2.now() + sim::SimTime::seconds(5),
                   [&] { net2.inject_link_failure(*link40); });
  sim2.run();
  EXPECT_GT(net2.total_counters().ssld_conversions, 0u);
  // Network still converges to the same final routes.
  ASSERT_NE(net2.speaker(6).best_path(kP), nullptr);
  EXPECT_EQ(*net2.speaker(6).best_path(kP), test::path_of({6, 3, 2, 1, 0}));
}

}  // namespace
}  // namespace bgpsim::bgp
