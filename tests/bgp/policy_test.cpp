#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include "bgp/decision.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

using net::Relationship;
using net::RelationshipTable;

// A small hierarchy:
//     1 --- 2      (peers, the "core")
//    /|      \     (provider-to-customer links run down)
//   3 4       5    (customers of the core)
//   |
//   6              (customer of 3: a chain)
RelationshipTable sample_table() {
  RelationshipTable rel;
  rel.set_peering(1, 2);
  rel.set_provider_customer(1, 3);
  rel.set_provider_customer(1, 4);
  rel.set_provider_customer(2, 5);
  rel.set_provider_customer(3, 6);
  return rel;
}

TEST(RelationshipTable, SymmetricViews) {
  const auto rel = sample_table();
  EXPECT_EQ(rel.relationship(1, 3), Relationship::kCustomer);
  EXPECT_EQ(rel.relationship(3, 1), Relationship::kProvider);
  EXPECT_EQ(rel.relationship(1, 2), Relationship::kPeer);
  EXPECT_EQ(rel.relationship(2, 1), Relationship::kPeer);
  EXPECT_FALSE(rel.relationship(3, 5).has_value());
}

TEST(RelationshipTable, LocalPrefOrdering) {
  EXPECT_GT(RelationshipTable::local_pref(Relationship::kCustomer),
            RelationshipTable::local_pref(Relationship::kPeer));
  EXPECT_GT(RelationshipTable::local_pref(Relationship::kPeer),
            RelationshipTable::local_pref(Relationship::kProvider));
}

TEST(PolicyLocalPref, PrefersCustomerRoutes) {
  const auto rel = sample_table();
  EXPECT_EQ(policy_local_pref(rel, 1, 3), 2);  // 3 is 1's customer
  EXPECT_EQ(policy_local_pref(rel, 1, 2), 1);  // peer
  EXPECT_EQ(policy_local_pref(rel, 3, 1), 0);  // provider
  EXPECT_EQ(policy_local_pref(rel, 3, 5), 1);  // unclassified -> peer-grade
}

TEST(PolicyExport, SelfOriginatedGoesEverywhere) {
  const auto rel = sample_table();
  const AsPath self_route = test::path_of({3});
  EXPECT_TRUE(policy_exportable(rel, 3, self_route, 1));  // to provider
  EXPECT_TRUE(policy_exportable(rel, 3, self_route, 6));  // to customer
}

TEST(PolicyExport, CustomerRoutesGoEverywhere) {
  const auto rel = sample_table();
  // Node 3's route learned from customer 6.
  const AsPath via_customer = test::path_of({3, 6});
  EXPECT_TRUE(policy_exportable(rel, 3, via_customer, 1));  // up to provider
}

TEST(PolicyExport, ProviderRoutesOnlyToCustomers) {
  const auto rel = sample_table();
  // Node 3's route learned from provider 1.
  const AsPath via_provider = test::path_of({3, 1, 4});
  EXPECT_TRUE(policy_exportable(rel, 3, via_provider, 6));   // down: ok
  EXPECT_FALSE(policy_exportable(rel, 3, via_provider, 1));  // back up: no
}

TEST(PolicyExport, PeerRoutesOnlyToCustomers) {
  const auto rel = sample_table();
  // Node 1's route learned from peer 2.
  const AsPath via_peer = test::path_of({1, 2, 5});
  EXPECT_TRUE(policy_exportable(rel, 1, via_peer, 3));   // to customer: ok
  EXPECT_FALSE(policy_exportable(rel, 1, via_peer, 2));  // to peer: no
}

TEST(ValleyFree, AcceptsUpPeerDown) {
  const auto rel = sample_table();
  // 6 -> 3 -> 1 -> 2 -> 5: climb, climb, peer, descend.
  EXPECT_TRUE(valley_free(rel, test::path_of({6, 3, 1, 2, 5})));
  // Pure descent: 1 -> 3 -> 6.
  EXPECT_TRUE(valley_free(rel, test::path_of({1, 3, 6})));
  // Pure climb: 6 -> 3 -> 1.
  EXPECT_TRUE(valley_free(rel, test::path_of({6, 3, 1})));
}

TEST(ValleyFree, RejectsValleys) {
  const auto rel = sample_table();
  // 3 -> 1 -> 4: down after... wait, 3->1 climbs, 1->4 descends: fine.
  EXPECT_TRUE(valley_free(rel, test::path_of({3, 1, 4})));
  // 4 -> 1 -> 3 -> 6 then back up 6 has no uplink; construct real valley:
  // 1 -> 3 (down) then 3 -> 1? contains duplicate; use: 4 -> 1 (up),
  // 1 -> 3 (down), 3 -> 6 (down) fine; a valley = down then up:
  // 1 -> 4 (down) then 4 -> ... no second provider. Add one:
  auto rel2 = rel;
  rel2.set_provider_customer(2, 4);  // 4 is multi-homed to 1 and 2
  // 3 -> 1 -> 4 -> 2: down to 4 then up to 2 — a valley (free transit).
  EXPECT_FALSE(valley_free(rel2, test::path_of({3, 1, 4, 2})));
}

TEST(ValleyFree, RejectsDoublePeering) {
  auto rel = sample_table();
  rel.set_peering(3, 4);
  // 6 -> 3 (up) -> 4 (peer) ... -> via another peer edge 4 -> 1? 1 is 4's
  // provider (up after peer): invalid.
  EXPECT_FALSE(valley_free(rel, test::path_of({6, 3, 4, 1})));
  // Two peer steps in a row: 5 -> 2 (up), 2 -> 1 (peer), 1 -> ... peer
  // again is impossible here; use 3 - 4 peering plus 1 - 2:
  // 3 -> 4 (peer) then 4 -> 1 (up) invalid already covered; construct
  // peer-peer: 1 -> 2 (peer) then 2 -> ... need second peer at 2.
  auto rel2 = rel;
  rel2.set_peering(2, 4);
  EXPECT_FALSE(valley_free(rel2, test::path_of({1, 2, 4, 6})));
}

TEST(SelectBestWithPolicy, LocalPrefBeatsPathLength) {
  const auto rel = sample_table();
  rib::LocalRibs ribs{1, 2};
  // At node 1: a short route via peer 2 and a longer route via customer 3.
  ribs.adj_set(0, 0, 2, test::path_of({2, 9}));
  ribs.adj_set(0, 0, 3, test::path_of({3, 6, 9}));
  const auto best = select_best(ribs.adj_entries(0, 0), 1, &rel);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first_hop(), 3u);  // customer wins despite longer path
  // Without policy, the shorter path wins.
  const auto shortest = select_best(ribs.adj_entries(0, 0), 1, nullptr);
  ASSERT_TRUE(shortest.has_value());
  EXPECT_EQ(shortest->first_hop(), 2u);
}

TEST(SelectBestWithPolicy, EqualPrefFallsBackToLength) {
  const auto rel = sample_table();
  rib::LocalRibs ribs{1, 2};
  // At node 1: two customer routes (3 and 4).
  ribs.adj_set(0, 0, 3, test::path_of({3, 6, 9}));
  ribs.adj_set(0, 0, 4, test::path_of({4, 9}));
  const auto best = select_best(ribs.adj_entries(0, 0), 1, &rel);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first_hop(), 4u);
}

TEST(SelectBestWithPolicy, PoisonReverseStillApplies) {
  const auto rel = sample_table();
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 3, test::path_of({3, 1, 9}));  // contains node 1
  EXPECT_FALSE(select_best(ribs.adj_entries(0, 0), 1, &rel).has_value());
}

}  // namespace
}  // namespace bgpsim::bgp
