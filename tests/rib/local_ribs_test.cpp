// LocalRibs: the flat (speaker × prefix-id) planes must preserve the old
// per-speaker map semantics exactly — set_best change detection, ascending
// peer order in Adj-RIB-In columns, and per-speaker checkpoint codecs —
// because the decision process's tie-breaking and the snapshot digests
// both depend on them.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/types.hpp"
#include "rib/local_ribs.hpp"
#include "snap/codec.hpp"
#include "support/paths.hpp"

namespace bgpsim::rib {
namespace {

TEST(LocalRibs, SetBestReportsChangesLikeTheOldLocRib) {
  LocalRibs ribs{2};
  EXPECT_EQ(ribs.best(0, 9), nullptr);

  EXPECT_TRUE(ribs.set_best(0, 9, test::path_of({1, 2})));
  ASSERT_NE(ribs.best(0, 9), nullptr);
  EXPECT_EQ(*ribs.best(0, 9), test::path_of({1, 2}));

  // Same value again: no change.
  EXPECT_FALSE(ribs.set_best(0, 9, test::path_of({1, 2})));
  // Different value: change.
  EXPECT_TRUE(ribs.set_best(0, 9, test::path_of({1, 3, 2})));
  // Disengage: change once, then a no-op.
  EXPECT_TRUE(ribs.set_best(0, 9, std::nullopt));
  EXPECT_EQ(ribs.best(0, 9), nullptr);
  EXPECT_FALSE(ribs.set_best(0, 9, std::nullopt));

  // Speaker rows are independent.
  EXPECT_TRUE(ribs.set_best(1, 9, test::path_of({4})));
  EXPECT_EQ(ribs.best(0, 9), nullptr);
}

TEST(LocalRibs, BestPrefixesAscendingRegardlessOfInterningOrder) {
  LocalRibs ribs{1};
  ribs.set_best(0, 30, test::path_of({1}));
  ribs.set_best(0, 10, test::path_of({1}));
  ribs.set_best(0, 20, test::path_of({1}));
  EXPECT_EQ(ribs.best_prefixes(0), (std::vector<net::Prefix>{10, 20, 30}));
  ribs.set_best(0, 20, std::nullopt);
  EXPECT_EQ(ribs.best_prefixes(0), (std::vector<net::Prefix>{10, 30}));
}

TEST(LocalRibs, AdjColumnsStaySortedByPeerAscending) {
  LocalRibs ribs{1};
  // Insert peers out of order; iteration must match the old std::map.
  ribs.adj_set(0, 5, /*peer=*/9, test::path_of({9, 1}));
  ribs.adj_set(0, 5, /*peer=*/2, test::path_of({2, 1}));
  ribs.adj_set(0, 5, /*peer=*/7, test::path_of({7, 1}));

  const PeerColumn& column = ribs.adj_entries(0, 5);
  ASSERT_EQ(column.size(), 3u);
  EXPECT_EQ(column[0].first, 2u);
  EXPECT_EQ(column[1].first, 7u);
  EXPECT_EQ(column[2].first, 9u);

  // Replacing an existing peer's route keeps one entry.
  ribs.adj_set(0, 5, /*peer=*/7, test::path_of({7, 3, 1}));
  ASSERT_EQ(ribs.adj_entries(0, 5).size(), 3u);
  ASSERT_NE(ribs.adj_get(0, 5, 7), nullptr);
  EXPECT_EQ(*ribs.adj_get(0, 5, 7), test::path_of({7, 3, 1}));
}

TEST(LocalRibs, AdjWithdrawAndDropPeer) {
  LocalRibs ribs{1};
  ribs.adj_set(0, 1, 4, test::path_of({4}));
  ribs.adj_set(0, 2, 4, test::path_of({4}));
  ribs.adj_set(0, 2, 5, test::path_of({5}));

  EXPECT_TRUE(ribs.adj_withdraw(0, 1, 4));
  EXPECT_FALSE(ribs.adj_withdraw(0, 1, 4));  // already gone
  EXPECT_EQ(ribs.adj_get(0, 1, 4), nullptr);

  // drop_peer reports which prefixes lost an entry (session reset).
  const std::vector<net::Prefix> touched = ribs.adj_drop_peer(0, 4);
  EXPECT_EQ(touched, (std::vector<net::Prefix>{2}));
  EXPECT_EQ(ribs.adj_get(0, 2, 4), nullptr);
  ASSERT_NE(ribs.adj_get(0, 2, 5), nullptr);
  EXPECT_EQ(ribs.adj_prefixes(0), (std::vector<net::Prefix>{2}));
}

TEST(LocalRibs, AdjEraseIfCountsAndFilters) {
  LocalRibs ribs{1};
  ribs.adj_set(0, 3, 1, test::path_of({1, 8}));
  ribs.adj_set(0, 3, 2, test::path_of({2, 9}));
  ribs.adj_set(0, 3, 6, test::path_of({6, 8}));

  // The Assertion enhancement's primitive: drop every column entry whose
  // path crosses node 8.
  const std::size_t erased =
      ribs.adj_erase_if(0, 3, [](net::NodeId, const bgp::AsPath& path) {
        return path.contains(8);
      });
  EXPECT_EQ(erased, 2u);
  const PeerColumn& column = ribs.adj_entries(0, 3);
  ASSERT_EQ(column.size(), 1u);
  EXPECT_EQ(column[0].first, 2u);
  EXPECT_EQ(ribs.adj_erase_if(0, 99, [](net::NodeId, const bgp::AsPath&) {
    return true;
  }),
            0u);  // unknown prefix: nothing to erase
}

TEST(LocalRibs, EnsureSpeakersPreservesExistingRows) {
  LocalRibs ribs{1};
  ribs.set_best(0, 7, test::path_of({1, 2}));
  ribs.adj_set(0, 7, 3, test::path_of({3, 2}));

  ribs.ensure_speakers(4);
  EXPECT_EQ(ribs.speaker_count(), 4u);
  ASSERT_NE(ribs.best(0, 7), nullptr);
  EXPECT_EQ(*ribs.best(0, 7), test::path_of({1, 2}));
  ASSERT_NE(ribs.adj_get(0, 7, 3), nullptr);
  EXPECT_EQ(ribs.best(3, 7), nullptr);

  // Shrinking is a no-op.
  ribs.ensure_speakers(2);
  EXPECT_EQ(ribs.speaker_count(), 4u);
}

TEST(LocalRibs, PerSpeakerCodecRoundTripsBothPlanes) {
  LocalRibs ribs{2};
  ribs.set_best(0, 11, test::path_of({1, 5}));
  ribs.set_best(0, 22, test::path_of({1, 6, 5}));
  ribs.adj_set(0, 11, 6, test::path_of({6, 5}));
  ribs.adj_set(0, 11, 2, test::path_of({2, 5}));
  ribs.set_best(1, 11, test::path_of({9}));

  snap::Writer table_w;
  ribs.save_table(table_w);
  snap::Writer best_w;
  ribs.save_best(0, best_w);
  snap::Writer adj_w;
  ribs.save_adj(0, adj_w);

  // Restore into a store with different contents; the table restore resets
  // both planes, then per-speaker restores reload row 0.
  LocalRibs other{2};
  other.set_best(0, 99, test::path_of({4}));
  other.set_best(1, 99, test::path_of({4}));
  snap::Reader table_r{table_w.bytes()};
  other.restore_table(table_r);
  EXPECT_EQ(other.best(0, 99), nullptr);
  EXPECT_EQ(other.best(1, 99), nullptr);

  snap::Reader best_r{best_w.bytes()};
  other.restore_best(0, best_r, test::paths());
  snap::Reader adj_r{adj_w.bytes()};
  other.restore_adj(0, adj_r, test::paths());

  ASSERT_NE(other.best(0, 11), nullptr);
  EXPECT_EQ(*other.best(0, 11), test::path_of({1, 5}));
  ASSERT_NE(other.best(0, 22), nullptr);
  const PeerColumn& column = other.adj_entries(0, 11);
  ASSERT_EQ(column.size(), 2u);
  EXPECT_EQ(column[0].first, 2u);
  EXPECT_EQ(column[1].first, 6u);
  // Prefix ids follow the restored table, so a re-save is byte-identical.
  snap::Writer best_w2;
  other.save_best(0, best_w2);
  EXPECT_EQ(best_w.bytes(), best_w2.bytes());
}

TEST(LocalRibs, AdjRestoreRejectsAColumnLongerThanItsBytes) {
  snap::Writer w;
  w.u64(1);                       // one prefix
  w.u32(0);                       // prefix 0
  w.u64(std::uint64_t{1} << 40);  // its column claims 2^40 entries
  w.u32(3);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  LocalRibs ribs(1);
  snap::Reader r{bytes};
  EXPECT_THROW(ribs.restore_adj(0, r, test::paths()), snap::FormatError);
}

}  // namespace
}  // namespace bgpsim::rib
