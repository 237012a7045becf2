// The offline reference must agree with hand-computed fixed points and
// flag every class of discrepancy the quiescence diff is meant to catch.
#include "check/reference.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "bgp/as_path.hpp"
#include "net/topology.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::check {
namespace {

net::Topology make_chain4() {
  net::Topology topo{4};
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  return topo;
}

TEST(ComputeReference, ChainDistancesAreHopCounts) {
  const net::Topology topo = make_chain4();
  const ReferenceRouting ref = compute_reference(topo, 0);
  ASSERT_EQ(ref.distance.size(), 4u);
  EXPECT_EQ(ref.distance[0], 0u);
  EXPECT_EQ(ref.distance[1], 1u);
  EXPECT_EQ(ref.distance[2], 2u);
  EXPECT_EQ(ref.distance[3], 3u);
  EXPECT_TRUE(ref.reachable(3));
  EXPECT_EQ(ref.expected_path_length(3), 4u);
}

TEST(ComputeReference, RespectsDownLinks) {
  net::Topology topo = make_chain4();
  const net::LinkId cut = *topo.link_between(1, 2);
  ASSERT_TRUE(topo.set_link_state(cut, false));
  const ReferenceRouting ref = compute_reference(topo, 0);
  EXPECT_TRUE(ref.reachable(1));
  EXPECT_FALSE(ref.reachable(2));
  EXPECT_FALSE(ref.reachable(3));
}

TEST(ForwardingCycles, AcyclicGraphHasNone) {
  // Everyone forwards down the chain toward 0; the origin has no hop.
  const auto next = [](net::NodeId n) -> std::optional<net::NodeId> {
    if (n == 0) return std::nullopt;
    return n - 1;
  };
  EXPECT_TRUE(forwarding_cycles(4, next).empty());
}

TEST(ForwardingCycles, FindsDisjointCycles) {
  // 0<->1 and 2->3->4->2; 5 dangles into the first cycle.
  const std::map<net::NodeId, net::NodeId> hops{
      {0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {5, 0}};
  const auto next = [&](net::NodeId n) -> std::optional<net::NodeId> {
    const auto it = hops.find(n);
    if (it == hops.end()) return std::nullopt;
    return it->second;
  };
  const auto cycles = forwarding_cycles(6, next);
  ASSERT_EQ(cycles.size(), 2u);
  std::size_t two = 0;
  std::size_t three = 0;
  for (const auto& cycle : cycles) {
    if (cycle.size() == 2) ++two;
    if (cycle.size() == 3) ++three;
  }
  EXPECT_EQ(two, 1u);
  EXPECT_EQ(three, 1u);
}

// ---- diff_against_reference ----------------------------------------------

/// A synthetic quiescent network: per-node Loc-RIB paths and FIB hops.
struct FakeNetwork {
  std::map<net::NodeId, bgp::AsPath> paths;
  std::map<net::NodeId, net::NodeId> hops;
  bool origin_up = true;

  [[nodiscard]] QuiescentView view() const {
    QuiescentView v;
    v.loc_path = [this](net::NodeId n) -> const bgp::AsPath* {
      const auto it = paths.find(n);
      return it == paths.end() ? nullptr : &it->second;
    };
    v.fib_next_hop = [this](net::NodeId n) -> std::optional<net::NodeId> {
      const auto it = hops.find(n);
      if (it == hops.end()) return std::nullopt;
      return it->second;
    };
    v.origin_up = origin_up;
    return v;
  }
};

/// The converged state of a 4-clique routing to destination 0.
FakeNetwork converged_clique4() {
  FakeNetwork net;
  net.paths[0] = test::path_of({0});
  for (net::NodeId n = 1; n < 4; ++n) {
    net.paths[n] = test::path_of({n, 0});
    net.hops[n] = 0;
  }
  return net;
}

class DiffReferenceTest : public ::testing::Test {
 protected:
  net::Topology topo_ = topo::make_clique(4);
  Context ctx_{&topo_, {}, 0, 0, false};
};

TEST_F(DiffReferenceTest, ConvergedCliqueIsClean) {
  const FakeNetwork net = converged_clique4();
  EXPECT_TRUE(
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero()).empty());
}

TEST_F(DiffReferenceTest, CatchesForwardingLoop) {
  FakeNetwork net = converged_clique4();
  net.hops[1] = 2;
  net.hops[2] = 1;  // 1 <-> 2
  const auto diffs =
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero());
  EXPECT_FALSE(diffs.empty());
}

TEST_F(DiffReferenceTest, CatchesNonShortestPath) {
  FakeNetwork net = converged_clique4();
  net.paths[3] = test::path_of({3, 2, 0});  // length 3, shortest is 2
  net.hops[3] = 2;
  const auto diffs =
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero());
  EXPECT_FALSE(diffs.empty());
}

TEST_F(DiffReferenceTest, CatchesMissingRoute) {
  FakeNetwork net = converged_clique4();
  net.paths.erase(2);
  net.hops.erase(2);
  const auto diffs =
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero());
  EXPECT_FALSE(diffs.empty());
}

TEST_F(DiffReferenceTest, CatchesStaleRouteAfterTdown) {
  FakeNetwork net = converged_clique4();
  net.origin_up = false;  // destination withdrew; every route is stale
  const auto diffs =
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero());
  EXPECT_FALSE(diffs.empty());

  FakeNetwork empty;
  empty.origin_up = false;
  EXPECT_TRUE(
      diff_against_reference(ctx_, empty.view(), sim::SimTime::zero()).empty());
}

TEST_F(DiffReferenceTest, CatchesNonDecreasingNextHop) {
  FakeNetwork net = converged_clique4();
  // Path claims 3->0 but the FIB forwards to 2 (same distance as 3).
  net.hops[3] = 2;
  const auto diffs =
      diff_against_reference(ctx_, net.view(), sim::SimTime::zero());
  EXPECT_FALSE(diffs.empty());
}

TEST_F(DiffReferenceTest, PolicyRoutingChecksOnlyLoopFreedom) {
  Context policy_ctx = ctx_;
  policy_ctx.policy_routing = true;

  // A longer-than-shortest (valley-free-style) fixed point is acceptable...
  FakeNetwork longer = converged_clique4();
  longer.paths[3] = test::path_of({3, 2, 0});
  longer.hops[3] = 2;
  EXPECT_TRUE(
      diff_against_reference(policy_ctx, longer.view(), sim::SimTime::zero())
          .empty());

  // ...but a forwarding loop never is.
  FakeNetwork looped = converged_clique4();
  looped.hops[1] = 2;
  looped.hops[2] = 1;
  EXPECT_FALSE(
      diff_against_reference(policy_ctx, looped.view(), sim::SimTime::zero())
          .empty());
}

TEST_F(DiffReferenceTest, EmptyLocPathSkipsPathChecksButKeepsFibChecks) {
  // A DV-style view: forwarding state only.
  FakeNetwork net = converged_clique4();
  net.paths.clear();
  QuiescentView v = net.view();
  v.loc_path = nullptr;
  EXPECT_TRUE(diff_against_reference(ctx_, v, sim::SimTime::zero()).empty());

  FakeNetwork looped = converged_clique4();
  looped.paths.clear();
  looped.hops[1] = 2;
  looped.hops[2] = 1;
  QuiescentView lv = looped.view();
  lv.loc_path = nullptr;
  EXPECT_FALSE(diff_against_reference(ctx_, lv, sim::SimTime::zero()).empty());
}

}  // namespace
}  // namespace bgpsim::check
