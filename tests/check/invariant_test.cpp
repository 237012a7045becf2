// Direct-dispatch unit tests: each invariant is fed hand-crafted callback
// sequences and must report exactly the states that contradict its claim.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/messages.hpp"
#include "net/topology.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::check {
namespace {

using sim::SimTime;

/// Harness: wires an invariant's report sink into a local vector and arms
/// it with a 4-clique context (destination 0, prefix 0).
template <typename Inv>
class Harness {
 public:
  Harness() { reset({}); }

  void reset(bgp::BgpConfig bgp) {
    violations_.clear();
    inv_.set_report_sink(
        [this](Violation v) { violations_.push_back(std::move(v)); });
    inv_.arm(Context{&topo_, bgp, 0, 0, false});
  }

  Inv& inv() { return inv_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

 private:
  net::Topology topo_ = topo::make_clique(4);
  Inv inv_;
  std::vector<Violation> violations_;
};

// ---- PathSanityInvariant -------------------------------------------------

TEST(PathSanity, AcceptsProperPaths) {
  Harness<PathSanityInvariant> h;
  h.inv().on_route_installed(2, 0, test::path_of({2, 1, 0}),
                             SimTime::seconds(1));
  h.inv().on_route_installed(2, 0, std::nullopt, SimTime::seconds(2));
  h.inv().on_route_installed(0, 0, test::path_of({0}), SimTime::seconds(3));
  EXPECT_TRUE(h.violations().empty());
}

TEST(PathSanity, RejectsRepeatedAs) {
  Harness<PathSanityInvariant> h;
  h.inv().on_route_installed(2, 0, test::path_of({2, 1, 2, 0}),
                             SimTime::seconds(1));
  ASSERT_EQ(h.violations().size(), 1u);
  EXPECT_NE(h.violations()[0].detail.find("poison-reverse"),
            std::string::npos);
}

TEST(PathSanity, RejectsPathNotStartingAtAdopter) {
  Harness<PathSanityInvariant> h;
  h.inv().on_route_installed(2, 0, test::path_of({1, 0}), SimTime::seconds(1));
  EXPECT_EQ(h.violations().size(), 1u);
}

TEST(PathSanity, RejectsWrongOrigin) {
  Harness<PathSanityInvariant> h;
  h.inv().on_route_installed(2, 0, test::path_of({2, 3, 1}),
                             SimTime::seconds(1));
  EXPECT_EQ(h.violations().size(), 1u);
}

TEST(PathSanity, RejectsEmptyPath) {
  Harness<PathSanityInvariant> h;
  h.inv().on_route_installed(2, 0, bgp::AsPath{}, SimTime::seconds(1));
  EXPECT_EQ(h.violations().size(), 1u);
}

TEST(PathSanity, RejectsNonEdgeHop) {
  // Chain 0-1-2-3: the hop 3—1 does not exist.
  net::Topology topo{4};
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  PathSanityInvariant inv;
  std::vector<Violation> violations;
  inv.set_report_sink([&](Violation v) { violations.push_back(std::move(v)); });
  inv.arm(Context{&topo, {}, 0, 0, false});
  inv.on_route_installed(3, 0, test::path_of({3, 1, 0}), SimTime::seconds(1));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("non-edge"), std::string::npos);
}

// ---- RibFibConsistencyInvariant ------------------------------------------

TEST(RibFib, ConsistentSequenceIsClean) {
  Harness<RibFibConsistencyInvariant> h;
  h.inv().on_fib_changed(1, 0, std::nullopt, 0, SimTime::seconds(1));
  h.inv().on_route_installed(1, 0, test::path_of({1, 0}), SimTime::seconds(1));
  h.inv().on_fib_changed(1, 0, 0, std::nullopt, SimTime::seconds(2));
  h.inv().on_route_installed(1, 0, std::nullopt, SimTime::seconds(2));
  // The origin selects its own one-hop path with no FIB route at all.
  h.inv().on_route_installed(0, 0, test::path_of({0}), SimTime::seconds(3));
  EXPECT_TRUE(h.violations().empty());
}

TEST(RibFib, CatchesFibLaggingTheRib) {
  Harness<RibFibConsistencyInvariant> h;
  h.inv().on_fib_changed(1, 0, std::nullopt, 3, SimTime::seconds(1));
  // Loc-RIB says the next hop is 2, but the FIB still forwards to 3.
  h.inv().on_route_installed(1, 0, test::path_of({1, 2, 0}),
                             SimTime::seconds(1));
  EXPECT_EQ(h.violations().size(), 1u);
}

TEST(RibFib, CatchesRouteWithoutFibEntry) {
  Harness<RibFibConsistencyInvariant> h;
  h.inv().on_route_installed(1, 0, test::path_of({1, 0}), SimTime::seconds(1));
  EXPECT_EQ(h.violations().size(), 1u);
}

TEST(RibFib, CatchesInconsistentPreviousHop) {
  Harness<RibFibConsistencyInvariant> h;
  h.inv().on_fib_changed(1, 0, std::nullopt, 0, SimTime::seconds(1));
  // The FIB claims the previous hop was 2; observed history says 0.
  h.inv().on_fib_changed(1, 0, 2, 3, SimTime::seconds(2));
  EXPECT_EQ(h.violations().size(), 1u);
}

// ---- MraiLegalityInvariant -----------------------------------------------

class MraiLegalityTest : public ::testing::Test {
 protected:
  MraiLegalityTest() {
    bgp::BgpConfig bgp;
    bgp.mrai = SimTime::seconds(30);
    bgp.jitter_lo = 1.0;  // min legal gap: exactly 30 s
    bgp.jitter_hi = 1.0;
    h_.reset(bgp);
  }

  void announce(SimTime at) {
    h_.inv().on_update_sent(1, 2, bgp::UpdateMsg::announce(0, path_), at);
  }
  void withdraw(SimTime at) {
    h_.inv().on_update_sent(1, 2, bgp::UpdateMsg::withdraw(0), at);
  }

  Harness<MraiLegalityInvariant> h_;
  bgp::AsPath path_ = test::path_of({1, 0});
};

TEST_F(MraiLegalityTest, SpacedAnnouncementsAreLegal) {
  announce(SimTime::seconds(1));
  announce(SimTime::seconds(32));
  EXPECT_TRUE(h_.violations().empty());
}

TEST_F(MraiLegalityTest, BackToBackAnnouncementsViolate) {
  announce(SimTime::seconds(1));
  announce(SimTime::seconds(10));
  EXPECT_EQ(h_.violations().size(), 1u);
}

TEST_F(MraiLegalityTest, WithdrawalsAreExemptWithoutWrate) {
  announce(SimTime::seconds(1));
  withdraw(SimTime::seconds(2));
  withdraw(SimTime::seconds(3));
  EXPECT_TRUE(h_.violations().empty());
}

TEST_F(MraiLegalityTest, WrateRateLimitsWithdrawalsToo) {
  bgp::BgpConfig bgp;
  bgp.mrai = SimTime::seconds(30);
  bgp.jitter_lo = 1.0;
  bgp.jitter_hi = 1.0;
  bgp.wrate = true;
  h_.reset(bgp);
  announce(SimTime::seconds(1));
  withdraw(SimTime::seconds(2));
  EXPECT_EQ(h_.violations().size(), 1u);
}

TEST_F(MraiLegalityTest, SessionResetRestartsTheClock) {
  announce(SimTime::seconds(1));
  h_.inv().on_session_changed(1, 2, false, SimTime::seconds(2));
  h_.inv().on_session_changed(1, 2, true, SimTime::seconds(3));
  announce(SimTime::seconds(4));  // fresh table exchange: legal
  EXPECT_TRUE(h_.violations().empty());
}

TEST_F(MraiLegalityTest, DistinctPeersHaveIndependentClocks) {
  announce(SimTime::seconds(1));
  h_.inv().on_update_sent(1, 3, bgp::UpdateMsg::announce(0, path_),
                          SimTime::seconds(2));
  EXPECT_TRUE(h_.violations().empty());
}

// ---- LoopDurationBoundInvariant ------------------------------------------

class LoopBoundInvariantTest : public ::testing::Test {
 protected:
  LoopBoundInvariantTest() {
    bgp::BgpConfig bgp;
    bgp.mrai = SimTime::seconds(30);
    bgp.jitter_lo = 1.0;
    bgp.jitter_hi = 1.0;
    h_.reset(bgp);
    // Two-node loop at t=10: bound is (2-1)×30 + 2×3 + 2 = 38 s.
    h_.inv().on_fib_changed(1, 0, std::nullopt, 2, SimTime::seconds(10));
    h_.inv().on_fib_changed(2, 0, std::nullopt, 1, SimTime::seconds(10));
  }

  Harness<LoopDurationBoundInvariant> h_;
};

TEST_F(LoopBoundInvariantTest, LoopWithinBoundIsClean) {
  h_.inv().on_fib_changed(1, 0, 2, 0, SimTime::seconds(20));  // resolved
  h_.inv().at_quiescence(QuiescentView{}, SimTime::seconds(500));
  EXPECT_TRUE(h_.violations().empty());
}

TEST_F(LoopBoundInvariantTest, OverlongLoopViolatesOnResolution) {
  h_.inv().on_fib_changed(1, 0, 2, 0, SimTime::seconds(200));
  ASSERT_EQ(h_.violations().size(), 1u);
  EXPECT_NE(h_.violations()[0].detail.find("MRAI bound"), std::string::npos);
}

TEST_F(LoopBoundInvariantTest, UnresolvedOverlongLoopCaughtAtQuiescence) {
  h_.inv().at_quiescence(QuiescentView{}, SimTime::seconds(200));
  EXPECT_EQ(h_.violations().size(), 1u);
}

}  // namespace
}  // namespace bgpsim::check
