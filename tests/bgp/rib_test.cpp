#include "bgp/rib.hpp"
#include "support/paths.hpp"

#include <gtest/gtest.h>

namespace bgpsim::bgp {
namespace {

TEST(AdjRibIn, SetAndGet) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  const AsPath* p = rib.get(0, 4);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, test::path_of({4, 0}));
  EXPECT_EQ(rib.get(0, 5), nullptr);
  EXPECT_EQ(rib.get(1, 4), nullptr);
}

TEST(AdjRibIn, SetReplacesPreviousEntry) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  rib.set(0, 4, test::path_of({4, 3, 0}));
  EXPECT_EQ(*rib.get(0, 4), test::path_of({4, 3, 0}));
  EXPECT_EQ(rib.entries(0).size(), 1u);
}

TEST(AdjRibIn, Withdraw) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  EXPECT_TRUE(rib.withdraw(0, 4));
  EXPECT_EQ(rib.get(0, 4), nullptr);
  EXPECT_FALSE(rib.withdraw(0, 4));  // already gone
  EXPECT_FALSE(rib.withdraw(3, 4));  // unknown prefix
}

TEST(AdjRibIn, DropPeerRemovesAllPrefixes) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  rib.set(1, 4, test::path_of({4, 1}));
  rib.set(0, 5, test::path_of({5, 0}));
  const auto affected = rib.drop_peer(4);
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_EQ(rib.get(0, 4), nullptr);
  EXPECT_EQ(rib.get(1, 4), nullptr);
  EXPECT_NE(rib.get(0, 5), nullptr);
}

TEST(AdjRibIn, EntriesIterateInPeerOrder) {
  AdjRibIn rib;
  rib.set(0, 9, test::path_of({9, 0}));
  rib.set(0, 2, test::path_of({2, 0}));
  rib.set(0, 5, test::path_of({5, 0}));
  std::vector<net::NodeId> peers;
  for (const auto& [peer, path] : rib.entries(0)) peers.push_back(peer);
  EXPECT_EQ(peers, (std::vector<net::NodeId>{2, 5, 9}));
}

TEST(AdjRibIn, EntriesForUnknownPrefixIsEmpty) {
  AdjRibIn rib;
  EXPECT_TRUE(rib.entries(7).empty());
}

TEST(AdjRibIn, PrefixesSkipEmptied) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  rib.set(1, 4, test::path_of({4, 1}));
  rib.withdraw(1, 4);
  const auto prefixes = rib.prefixes();
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0], 0u);
}

TEST(AdjRibIn, EraseIfSelectsByPredicate) {
  AdjRibIn rib;
  rib.set(0, 4, test::path_of({4, 0}));
  rib.set(0, 5, test::path_of({5, 4, 0}));
  rib.set(0, 6, test::path_of({6, 0}));
  const auto erased = rib.erase_if(0, [](net::NodeId, const AsPath& p) {
    return p.contains(4);
  });
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(rib.entries(0).size(), 1u);
  EXPECT_NE(rib.get(0, 6), nullptr);
}

TEST(LocRib, SetAndGet) {
  LocRib rib;
  EXPECT_EQ(rib.get(0), nullptr);
  EXPECT_TRUE(rib.set(0, test::path_of({5, 4, 0})));
  ASSERT_NE(rib.get(0), nullptr);
  EXPECT_EQ(*rib.get(0), test::path_of({5, 4, 0}));
}

TEST(LocRib, SetSamePathReportsNoChange) {
  LocRib rib;
  rib.set(0, test::path_of({5, 0}));
  EXPECT_FALSE(rib.set(0, test::path_of({5, 0})));
  EXPECT_TRUE(rib.set(0, test::path_of({5, 4, 0})));
}

TEST(LocRib, Disengage) {
  LocRib rib;
  rib.set(0, test::path_of({5, 0}));
  EXPECT_TRUE(rib.set(0, std::nullopt));
  EXPECT_EQ(rib.get(0), nullptr);
  EXPECT_FALSE(rib.set(0, std::nullopt));  // already unset
}

TEST(LocRib, PrefixesListsEngagedOnly) {
  LocRib rib;
  rib.set(0, test::path_of({1, 0}));
  rib.set(2, test::path_of({1, 2}));
  rib.set(0, std::nullopt);
  const auto prefixes = rib.prefixes();
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0], 2u);
}

}  // namespace
}  // namespace bgpsim::bgp
