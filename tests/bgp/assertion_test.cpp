#include "bgp/assertion.hpp"
#include "support/paths.hpp"

#include <gtest/gtest.h>

namespace bgpsim::bgp {
namespace {

TEST(AssertOnWithdraw, RemovesPathsThroughWithdrawingPeer) {
  // The paper's §5 example: node 5 receives a withdrawal from node 4 and
  // must also remove backup (5's stored) path (6 4 0) from node 6, since it
  // goes through node 4.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  ribs.adj_set(0, 0, 7, test::path_of({7, 3, 0}));
  const auto removed = assert_on_withdraw(ribs.adj_entries(0, 0), 4);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(ribs.adj_get(0, 0, 6), nullptr);
  EXPECT_NE(ribs.adj_get(0, 0, 7), nullptr);
}

TEST(AssertOnWithdraw, OriginWithdrawalFlushesEverything) {
  // Clique Tdown: every backup (j 0) traverses the origin 0, so the
  // origin's withdrawal invalidates all of them at once — the paper's
  // "immediate convergence after receiving the withdrawal from node 0".
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 2, test::path_of({2, 0}));
  ribs.adj_set(0, 0, 3, test::path_of({3, 0}));
  ribs.adj_set(0, 0, 4, test::path_of({4, 2, 0}));
  const auto removed = assert_on_withdraw(ribs.adj_entries(0, 0), 0);
  EXPECT_EQ(removed, 3u);
  EXPECT_TRUE(ribs.adj_entries(0, 0).empty());
}

TEST(AssertOnWithdraw, DoesNotTouchOtherPrefixes) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  ribs.adj_set(0, 1, 6, test::path_of({6, 4, 1}));
  assert_on_withdraw(ribs.adj_entries(0, 0), 4);
  EXPECT_EQ(ribs.adj_get(0, 0, 6), nullptr);
  EXPECT_NE(ribs.adj_get(0, 1, 6), nullptr);
}

TEST(AssertOnWithdraw, KeepsEntryFromTheWithdrawingPeerItself) {
  // The withdrawing peer's own entry is handled by the caller (it was just
  // withdrawn); the assertion only prunes *other* peers' entries.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  const auto removed = assert_on_withdraw(ribs.adj_entries(0, 0), 4);
  EXPECT_EQ(removed, 0u);
  EXPECT_NE(ribs.adj_get(0, 0, 4), nullptr);
}

TEST(AssertOnAnnounce, RemovesInconsistentSubPaths) {
  // Peer 4 announces (4 3 0); peer 6's stored (6 4 0) claims 4 reaches 0
  // directly — suffix (4 0) != (4 3 0), so it is provably obsolete.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 3, 0}));
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(ribs.adj_get(0, 0, 6), nullptr);
}

TEST(AssertOnAnnounce, KeepsConsistentSubPaths) {
  // Peer 4 announces (4 0); peer 6's (6 4 0) agrees with it.
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 0}));
  EXPECT_EQ(removed, 0u);
  EXPECT_NE(ribs.adj_get(0, 0, 6), nullptr);
}

TEST(AssertOnAnnounce, IgnoresPathsNotThroughAnnouncer) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 7, test::path_of({7, 3, 0}));
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 9, 0}));
  EXPECT_EQ(removed, 0u);
  EXPECT_NE(ribs.adj_get(0, 0, 7), nullptr);
}

TEST(AssertOnAnnounce, NeverRemovesTheAnnouncersOwnEntry) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 9, 0}));
  // Even if the stored entry from 4 differs from the new announcement
  // (caller updates it), assertion must not erase it.
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 0}));
  EXPECT_EQ(removed, 0u);
}

TEST(AssertOnAnnounce, RemovesDeepInconsistencies) {
  // (8 7 4 9 0) traverses 4 with suffix (4 9 0); 4 now announces (4 0).
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 8, test::path_of({8, 7, 4, 9, 0}));
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 0}));
  EXPECT_EQ(removed, 1u);
}

TEST(AssertOnAnnounce, MultipleEntriesPruned) {
  rib::LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 6, test::path_of({6, 4, 0}));
  ribs.adj_set(0, 0, 7, test::path_of({7, 4, 0}));
  ribs.adj_set(0, 0, 8, test::path_of({8, 4, 2, 0}));
  const auto removed = assert_on_announce(ribs.adj_entries(0, 0), 4, test::path_of({4, 2, 0}));
  // 6's and 7's suffix (4 0) disagrees; 8's suffix (4 2 0) agrees.
  EXPECT_EQ(removed, 2u);
  EXPECT_NE(ribs.adj_get(0, 0, 8), nullptr);
}

}  // namespace
}  // namespace bgpsim::bgp
