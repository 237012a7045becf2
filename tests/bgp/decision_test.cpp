#include "bgp/decision.hpp"
#include "support/paths.hpp"

#include <gtest/gtest.h>

namespace bgpsim::bgp {
namespace {

TEST(Preference, ShorterPathWins) {
  EXPECT_TRUE(preferred(test::path_of({4, 0}), test::path_of({5, 4, 0})));
  EXPECT_FALSE(preferred(test::path_of({5, 4, 0}), test::path_of({4, 0})));
}

TEST(Preference, EqualLengthSmallerNextHopWins) {
  // The paper: "the smaller node ID is used for tie-breaking between equal
  // length paths."
  EXPECT_TRUE(preferred(test::path_of({3, 0}), test::path_of({7, 0})));
  EXPECT_FALSE(preferred(test::path_of({7, 0}), test::path_of({3, 0})));
}

TEST(Preference, FullLexicographicFallback) {
  EXPECT_TRUE(preferred(test::path_of({3, 1, 0}), test::path_of({3, 2, 0})));
  EXPECT_FALSE(preferred(test::path_of({3, 2, 0}), test::path_of({3, 1, 0})));
}

TEST(Preference, IsAStrictOrder) {
  const AsPath p = test::path_of({3, 1, 0});
  EXPECT_FALSE(preferred(p, p));
}

TEST(SelectBest, EmptyRibYieldsNothing) {
  rib::LocalRibs ribs{1, 2};
  EXPECT_FALSE(select_best(ribs.adj_entries(0, 0), 5).has_value());
}

TEST(SelectBest, PicksShortest) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  const auto best = select_best(ribs.adj_entries(0, 0), 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, test::path_of({4, 0}));
}

TEST(SelectBest, PoisonReverseSkipsSelf) {
  // Node 4 must not adopt (6 4 0) or (5 4 0): they contain node 4.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  ribs.adj_set(0, 0, 5, test::path_of({5, 4, 0}));
  EXPECT_FALSE(select_best(ribs.adj_entries(0, 0), 4).has_value());
}

TEST(SelectBest, PoisonReverseDetectsArbitrarilyLongLoops) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 9, test::path_of({9, 8, 7, 6, 5, 4, 3, 0}));
  EXPECT_FALSE(select_best(ribs.adj_entries(0, 0), 4).has_value());
  EXPECT_TRUE(select_best(ribs.adj_entries(0, 0), 2).has_value());
}

TEST(SelectBest, SkipsPoisonedButKeepsOthers) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 5, 0}));  // contains 5 -> unusable for node 5
  ribs.adj_set(0, 0, 7, test::path_of({7, 3, 0}));
  const auto best = select_best(ribs.adj_entries(0, 0), 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, test::path_of({7, 3, 0}));
}

TEST(SelectBest, TieBreakAcrossNeighbors) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 7, test::path_of({7, 0}));
  ribs.adj_set(0, 0, 3, test::path_of({3, 0}));
  const auto best = select_best(ribs.adj_entries(0, 0), 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first_hop(), 3u);
}

TEST(SelectBest, PrefixIsolation) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 1, 6, test::path_of({6, 1}));
  const auto best0 = select_best(ribs.adj_entries(0, 0), 5);
  const auto best1 = select_best(ribs.adj_entries(0, 1), 5);
  ASSERT_TRUE(best0 && best1);
  EXPECT_EQ(best0->origin(), 0u);
  EXPECT_EQ(best1->origin(), 1u);
}

TEST(SelectBest, Figure1aSelection) {
  // Figure 1(a): node 5 knows (4 0) from 4 and (6 4 0) from 6; best is via
  // node 4.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  const auto best = select_best(ribs.adj_entries(0, 0), 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first_hop(), 4u);
}

TEST(SelectBest, Figure1bBackupAfterWithdrawal) {
  // After node 4's withdrawal, node 5's only remaining entry is the
  // (obsolete) (6 4 0) from node 6 — exactly the loop-forming pick.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  const auto best = select_best(ribs.adj_entries(0, 0), 5);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, test::path_of({6, 4, 0}));
}

}  // namespace
}  // namespace bgpsim::bgp
