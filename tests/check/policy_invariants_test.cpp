// Direct-dispatch unit tests for the policy-era invariants: valley-free
// path checking and persistent-oscillation detection.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "check/invariants.hpp"
#include "net/relationships.hpp"
#include "net/topology.hpp"
#include "support/paths.hpp"

namespace bgpsim::check {
namespace {

using sim::SimTime;

constexpr net::Prefix kP = 0;

/// Three ASes: 0 and 1 both provide for 2 (links 0-2, 1-2). The path
/// 0 -> 2 -> 1 descends to the customer and climbs back out — the
/// canonical valley.
class ValleyFixture : public ::testing::Test {
 protected:
  ValleyFixture() {
    topo_.add_nodes(3);
    topo_.add_link(0, 2);
    topo_.add_link(1, 2);
    rel_.set_provider_customer(0, 2);
    rel_.set_provider_customer(1, 2);
  }

  Context ctx() {
    return Context{&topo_, bgp::BgpConfig{}, kP, 2, true, &rel_};
  }

  std::vector<Violation> violations_;
  net::Topology topo_;
  net::RelationshipTable rel_;

  template <typename Inv>
  void wire(Inv& inv, const Context& context) {
    inv.set_report_sink(
        [this](Violation v) { violations_.push_back(std::move(v)); });
    inv.arm(context);
  }
};

TEST_F(ValleyFixture, ValleyFreePathsAreClean) {
  ValleyFreeInvariant inv;
  wire(inv, ctx());
  inv.on_route_installed(0, kP, test::path_of({0, 2}), SimTime::seconds(1));
  inv.on_route_installed(1, kP, test::path_of({1, 2}), SimTime::seconds(1));
  inv.on_route_installed(0, kP, std::nullopt, SimTime::seconds(2));
  EXPECT_TRUE(violations_.empty());
}

TEST_F(ValleyFixture, ValleyPathIsReported) {
  ValleyFreeInvariant inv;
  wire(inv, ctx());
  inv.on_route_installed(0, kP, test::path_of({0, 2, 1}), SimTime::seconds(1));
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].node, 0u);
  EXPECT_NE(violations_[0].detail.find("valley"), std::string::npos);
}

TEST_F(ValleyFixture, OtherPrefixesAreIgnored) {
  ValleyFreeInvariant inv;
  wire(inv, ctx());
  inv.on_route_installed(0, kP + 1, test::path_of({0, 2, 1}),
                         SimTime::seconds(1));
  EXPECT_TRUE(violations_.empty());
}

TEST_F(ValleyFixture, NoRelationshipTableMeansNoOp) {
  ValleyFreeInvariant inv;
  Context context = ctx();
  context.relationships = nullptr;
  wire(inv, context);
  inv.on_route_installed(0, kP, test::path_of({0, 2, 1}), SimTime::seconds(1));
  EXPECT_TRUE(violations_.empty());
}

TEST_F(ValleyFixture, QuiescentSweepCatchesRestoredValley) {
  // A warm start restores Loc-RIBs without replaying installs; the
  // at_quiescence sweep must still see the valley.
  ValleyFreeInvariant inv;
  wire(inv, ctx());
  const bgp::AsPath valley = test::path_of({0, 2, 1});
  QuiescentView view;
  view.loc_path = [&](net::NodeId n) -> const bgp::AsPath* {
    return n == 0 ? &valley : nullptr;
  };
  inv.at_quiescence(view, SimTime::seconds(5));
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].node, 0u);
}

TEST_F(ValleyFixture, OscillationReportsOncePastBudget) {
  OscillationInvariant inv;
  wire(inv, ctx());
  inv.set_flip_budget(3);
  for (int i = 0; i < 6; ++i) {
    inv.on_route_installed(1, kP, test::path_of({1, 2}),
                           SimTime::seconds(1 + i));
  }
  // Flips 4, 5, and 6 all exceed the budget; only the first reports.
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].node, 1u);
  EXPECT_NE(violations_[0].detail.find("oscillation"), std::string::npos);
}

TEST_F(ValleyFixture, OscillationBudgetIsPerNode) {
  OscillationInvariant inv;
  wire(inv, ctx());
  inv.set_flip_budget(3);
  for (int i = 0; i < 3; ++i) {
    inv.on_route_installed(0, kP, test::path_of({0, 2}), SimTime::seconds(i));
    inv.on_route_installed(1, kP, test::path_of({1, 2}), SimTime::seconds(i));
    // Other prefixes are outside the armed run and never counted.
    inv.on_route_installed(0, kP + 1, test::path_of({0, 2}),
                           SimTime::seconds(i));
  }
  // Three flips each: nobody exceeded the budget of 3.
  EXPECT_TRUE(violations_.empty());
}

TEST_F(ValleyFixture, QuiescenceResetsTheFlipBudget) {
  OscillationInvariant inv;
  wire(inv, ctx());
  inv.set_flip_budget(2);
  for (int i = 0; i < 2; ++i) {
    inv.on_route_installed(0, kP, test::path_of({0, 2}), SimTime::seconds(i));
  }
  inv.at_quiescence(QuiescentView{}, SimTime::seconds(10));
  // The event's own exploration gets a fresh window...
  for (int i = 0; i < 2; ++i) {
    inv.on_route_installed(0, kP, test::path_of({0, 2}),
                           SimTime::seconds(20 + i));
  }
  EXPECT_TRUE(violations_.empty());
  // ...and still reports when that window is blown too.
  inv.on_route_installed(0, kP, test::path_of({0, 2}), SimTime::seconds(30));
  EXPECT_EQ(violations_.size(), 1u);
}

}  // namespace
}  // namespace bgpsim::check
