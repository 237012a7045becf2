// LocalRibs: the flat (speaker × prefix) planes — set_best change
// detection, ascending peer order in Adj-RIB-In columns, and per-speaker
// checkpoint codecs that reject out-of-range prefixes and peer-side
// garbage — because the decision process's tie-breaking and the snapshot
// digests both depend on them. The AdjRibIn and LocRib suites pin the
// semantics of each plane as one speaker sees it.
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

// ---- the Adj-RIB-In plane, one speaker's row --------------------------

TEST(AdjRibIn, SetAndGet) {
  LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  const bgp::AsPath* p = ribs.adj_get(0, 0, 4);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, test::path_of({4, 0}));
  EXPECT_EQ(ribs.adj_get(0, 0, 5), nullptr);
  EXPECT_EQ(ribs.adj_get(0, 1, 4), nullptr);
}

TEST(AdjRibIn, SetReplacesPreviousEntry) {
  LocalRibs ribs{1, 1};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 0, 4, test::path_of({4, 3, 0}));
  EXPECT_EQ(*ribs.adj_get(0, 0, 4), test::path_of({4, 3, 0}));
  EXPECT_EQ(ribs.adj_entries(0, 0).size(), 1u);
}

TEST(AdjRibIn, Withdraw) {
  LocalRibs ribs{1, 4};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  EXPECT_TRUE(ribs.adj_withdraw(0, 0, 4));
  EXPECT_EQ(ribs.adj_get(0, 0, 4), nullptr);
  EXPECT_FALSE(ribs.adj_withdraw(0, 0, 4));  // already gone
  EXPECT_FALSE(ribs.adj_withdraw(0, 3, 4));  // never announced
}

TEST(AdjRibIn, DropPeerRemovesAllPrefixes) {
  LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 1, 4, test::path_of({4, 1}));
  ribs.adj_set(0, 0, 5, test::path_of({5, 0}));
  const auto affected = ribs.adj_drop_peer(0, 4);
  EXPECT_EQ(affected, (std::vector<net::Prefix>{0, 1}));
  EXPECT_EQ(ribs.adj_get(0, 0, 4), nullptr);
  EXPECT_EQ(ribs.adj_get(0, 1, 4), nullptr);
  EXPECT_NE(ribs.adj_get(0, 0, 5), nullptr);
}

TEST(AdjRibIn, EntriesIterateInPeerOrder) {
  LocalRibs ribs{1, 1};
  ribs.adj_set(0, 0, 9, test::path_of({9, 0}));
  ribs.adj_set(0, 0, 2, test::path_of({2, 0}));
  ribs.adj_set(0, 0, 5, test::path_of({5, 0}));
  std::vector<net::NodeId> peers;
  for (const auto& [peer, path] : ribs.adj_entries(0, 0)) {
    peers.push_back(peer);
  }
  EXPECT_EQ(peers, (std::vector<net::NodeId>{2, 5, 9}));
}

TEST(AdjRibIn, EntriesForUnknownPrefixIsEmpty) {
  LocalRibs ribs{1, 8};
  EXPECT_TRUE(ribs.adj_entries(0, 7).empty());
}

TEST(AdjRibIn, PrefixesSkipEmptied) {
  LocalRibs ribs{1, 2};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 1, 4, test::path_of({4, 1}));
  ribs.adj_withdraw(0, 1, 4);
  EXPECT_EQ(ribs.adj_prefixes(0), (std::vector<net::Prefix>{0}));
}

TEST(AdjRibIn, EraseIfSelectsByPredicate) {
  // Erasing through the mutable column (the Assertion enhancement's
  // primitive) edits the store itself.
  LocalRibs ribs{1, 1};
  ribs.adj_set(0, 0, 4, test::path_of({4, 0}));
  ribs.adj_set(0, 0, 5, test::path_of({5, 4, 0}));
  ribs.adj_set(0, 0, 6, test::path_of({6, 0}));
  const auto erased =
      std::erase_if(ribs.adj_entries(0, 0), [](const PeerRoute& e) {
        return e.second.contains(4);
      });
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(ribs.adj_entries(0, 0).size(), 1u);
  EXPECT_NE(ribs.adj_get(0, 0, 6), nullptr);
  EXPECT_EQ(ribs.adj_get(0, 0, 4), nullptr);
}

// ---- the Loc-RIB plane, one speaker's row -----------------------------

TEST(LocRib, SetAndGet) {
  LocalRibs ribs{1, 1};
  EXPECT_EQ(ribs.best(0, 0), nullptr);
  EXPECT_TRUE(ribs.set_best(0, 0, test::path_of({5, 4, 0})));
  ASSERT_NE(ribs.best(0, 0), nullptr);
  EXPECT_EQ(*ribs.best(0, 0), test::path_of({5, 4, 0}));
}

TEST(LocRib, SetSamePathReportsNoChange) {
  LocalRibs ribs{1, 1};
  ribs.set_best(0, 0, test::path_of({5, 0}));
  EXPECT_FALSE(ribs.set_best(0, 0, test::path_of({5, 0})));
  EXPECT_TRUE(ribs.set_best(0, 0, test::path_of({5, 4, 0})));
}

TEST(LocRib, Disengage) {
  LocalRibs ribs{1, 1};
  ribs.set_best(0, 0, test::path_of({5, 0}));
  EXPECT_TRUE(ribs.set_best(0, 0, std::nullopt));
  EXPECT_EQ(ribs.best(0, 0), nullptr);
  EXPECT_FALSE(ribs.set_best(0, 0, std::nullopt));  // already unset
}

TEST(LocRib, PrefixesListsEngagedOnly) {
  LocalRibs ribs{1, 3};
  ribs.set_best(0, 0, test::path_of({1, 0}));
  ribs.set_best(0, 2, test::path_of({1, 2}));
  ribs.set_best(0, 0, std::nullopt);
  EXPECT_EQ(ribs.best_prefixes(0), (std::vector<net::Prefix>{2}));
}

// ---- the whole store --------------------------------------------------

TEST(LocalRibs, SetBestReportsChangesLikeTheOldLocRib) {
  LocalRibs ribs{2, 10};
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
  // Routes installed in any order list ascending: the planes are indexed
  // by the prefix value.
  LocalRibs ribs{1, 31};
  ribs.set_best(0, 30, test::path_of({1}));
  ribs.set_best(0, 10, test::path_of({1}));
  ribs.set_best(0, 20, test::path_of({1}));
  EXPECT_EQ(ribs.best_prefixes(0), (std::vector<net::Prefix>{10, 20, 30}));
  ribs.set_best(0, 20, std::nullopt);
  EXPECT_EQ(ribs.best_prefixes(0), (std::vector<net::Prefix>{10, 30}));
}

TEST(LocalRibs, AdjColumnsStaySortedByPeerAscending) {
  LocalRibs ribs{1, 6};
  // Insert peers out of order; iteration must be ascending.
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
  LocalRibs ribs{1, 3};
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
  LocalRibs ribs{2, 4};
  ribs.adj_set(0, 3, 1, test::path_of({1, 8}));
  ribs.adj_set(0, 3, 2, test::path_of({2, 9}));
  ribs.adj_set(0, 3, 6, test::path_of({6, 8}));
  ribs.adj_set(1, 3, 6, test::path_of({6, 8}));

  // Drop every column entry whose path crosses node 8, in one row.
  const std::size_t erased =
      std::erase_if(ribs.adj_entries(0, 3), [](const PeerRoute& e) {
        return e.second.contains(8);
      });
  EXPECT_EQ(erased, 2u);
  const PeerColumn& column = ribs.adj_entries(0, 3);
  ASSERT_EQ(column.size(), 1u);
  EXPECT_EQ(column[0].first, 2u);
  EXPECT_EQ(ribs.adj_prefixes(0), (std::vector<net::Prefix>{3}));
  EXPECT_EQ(ribs.adj_entries(1, 3).size(), 1u);  // other rows untouched
}

TEST(LocalRibs, RejectsAPrefixCountOutsideTheLimit) {
  EXPECT_THROW(LocalRibs(1, 0), std::invalid_argument);
  EXPECT_THROW(LocalRibs(1, net::kMaxPrefixes + 1), std::invalid_argument);
}

TEST(LocalRibs, PerSpeakerCodecRoundTripsBothPlanes) {
  LocalRibs ribs{2, 23};
  ribs.set_best(0, 11, test::path_of({1, 5}));
  ribs.set_best(0, 22, test::path_of({1, 6, 5}));
  ribs.adj_set(0, 11, 6, test::path_of({6, 5}));
  ribs.adj_set(0, 11, 2, test::path_of({2, 5}));
  ribs.set_best(1, 11, test::path_of({9}));

  snap::Writer best_w;
  ribs.save_best(0, best_w);
  snap::Writer adj_w;
  ribs.save_adj(0, adj_w);

  // Restore into a store with different contents: the per-speaker
  // restores replace row 0 and leave row 1 alone.
  LocalRibs other{2, 23};
  other.set_best(0, 3, test::path_of({4}));
  other.adj_set(0, 3, 2, test::path_of({2, 4}));
  other.set_best(1, 3, test::path_of({4}));
  snap::Reader best_r{best_w.bytes()};
  other.restore_best(0, best_r, test::paths());
  const std::vector<net::NodeId> peers{2, 6};
  snap::Reader adj_r{adj_w.bytes()};
  other.restore_adj(0, adj_r, test::paths(), peers);

  EXPECT_EQ(other.best(0, 3), nullptr);
  EXPECT_TRUE(other.adj_entries(0, 3).empty());
  ASSERT_NE(other.best(1, 3), nullptr);
  ASSERT_NE(other.best(0, 11), nullptr);
  EXPECT_EQ(*other.best(0, 11), test::path_of({1, 5}));
  ASSERT_NE(other.best(0, 22), nullptr);
  const PeerColumn& column = other.adj_entries(0, 11);
  ASSERT_EQ(column.size(), 2u);
  EXPECT_EQ(column[0].first, 2u);
  EXPECT_EQ(column[1].first, 6u);
  // A re-save is byte-identical.
  snap::Writer best_w2;
  other.save_best(0, best_w2);
  EXPECT_EQ(best_w.bytes(), best_w2.bytes());
  snap::Writer adj_w2;
  other.save_adj(0, adj_w2);
  EXPECT_EQ(adj_w.bytes(), adj_w2.bytes());
}

// ---- decoders: every prefix below P, every peer a session, ascending ---

/// One Adj-RIB-In section: one prefix whose column holds `peers`, each
/// with a one-hop path.
std::vector<std::uint8_t> adj_section(net::Prefix prefix,
                                      const std::vector<net::NodeId>& peers) {
  snap::Writer w;
  w.u64(1);
  w.u32(prefix);
  w.u64(peers.size());
  for (const net::NodeId peer : peers) {
    w.u32(peer);
    test::path_of({peer}).save(w);
  }
  return std::move(w).take();
}

TEST(LocalRibs, AdjRestoreRejectsAColumnLongerThanItsBytes) {
  snap::Writer w;
  w.u64(1);                       // one prefix
  w.u32(0);                       // prefix 0
  w.u64(std::uint64_t{1} << 40);  // its column claims 2^40 entries
  w.u32(3);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  LocalRibs ribs(1, 1);
  const std::vector<net::NodeId> peers{3};
  snap::Reader r{bytes};
  EXPECT_THROW(ribs.restore_adj(0, r, test::paths(), peers),
               snap::FormatError);
}

TEST(LocalRibs, AdjRestoreRejectsAPrefixAtOrAboveP) {
  const std::vector<net::NodeId> peers{3};
  LocalRibs ribs(1, 4);
  const std::vector<std::uint8_t> ok = adj_section(3, peers);
  snap::Reader in_range{ok};
  ribs.restore_adj(0, in_range, test::paths(), peers);
  EXPECT_NE(ribs.adj_get(0, 3, 3), nullptr);

  for (const net::Prefix prefix : {net::Prefix{4}, net::kMaxPrefixes - 1}) {
    const std::vector<std::uint8_t> bytes = adj_section(prefix, peers);
    snap::Reader r{bytes};
    EXPECT_THROW(ribs.restore_adj(0, r, test::paths(), peers),
                 snap::FormatError)
        << "prefix " << prefix;
  }
}

TEST(LocalRibs, AdjRestoreRejectsAColumnOutOfPeerOrder) {
  const std::vector<net::NodeId> peers{2, 5};
  LocalRibs ribs(1, 1);
  for (const std::vector<net::NodeId>& column :
       {std::vector<net::NodeId>{5, 2}, std::vector<net::NodeId>{2, 2}}) {
    const std::vector<std::uint8_t> bytes = adj_section(0, column);
    snap::Reader r{bytes};
    EXPECT_THROW(ribs.restore_adj(0, r, test::paths(), peers),
                 snap::FormatError);
  }
}

TEST(LocalRibs, AdjRestoreRejectsAnEntryFromANonPeer) {
  const std::vector<net::NodeId> peers{2, 5};
  LocalRibs ribs(1, 1);
  const std::vector<std::uint8_t> bytes = adj_section(0, {2, 4});
  snap::Reader r{bytes};
  EXPECT_THROW(ribs.restore_adj(0, r, test::paths(), peers),
               snap::FormatError);
}

TEST(LocalRibs, BestRestoreRejectsAPrefixAtOrAboveP) {
  LocalRibs ribs(1, 2);
  for (const net::Prefix prefix : {net::Prefix{2}, net::kMaxPrefixes - 1}) {
    snap::Writer w;
    w.u64(1);
    w.u32(prefix);
    test::path_of({1}).save(w);
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    snap::Reader r{bytes};
    EXPECT_THROW(ribs.restore_best(0, r, test::paths()), snap::FormatError)
        << "prefix " << prefix;
  }
}

// ---- path refs: every ref names a node of the restoring arena ----------

TEST(LocalRibs, BestRestoreRejectsARefBeyondTheArenaAndTheEmptyPath) {
  bgp::PathArena arena;
  (void)arena.make({1});  // one node: ref 1 is (1)
  LocalRibs ribs(1, 1);
  const auto entry = [](std::uint32_t ref) {
    snap::Writer w;
    w.u64(1);
    w.u32(0);  // prefix 0
    w.u32(ref);
    return std::move(w).take();
  };
  const std::vector<std::uint8_t> ok = entry(1);
  snap::Reader accepted{ok};
  ribs.restore_best(0, accepted, arena);
  ASSERT_NE(ribs.best(0, 0), nullptr);
  EXPECT_EQ(*ribs.best(0, 0), arena.make({1}));
  for (const std::uint32_t ref : {0u, 2u, 0xffffffffu}) {
    const std::vector<std::uint8_t> bytes = entry(ref);
    snap::Reader r{bytes};
    EXPECT_THROW(ribs.restore_best(0, r, arena), snap::FormatError)
        << "ref " << ref;
  }
}

TEST(LocalRibs, AdjRestoreRejectsARefBeyondTheArena) {
  bgp::PathArena arena;
  (void)arena.make({3});  // one node: ref 1 is (3)
  LocalRibs ribs(1, 1);
  const std::vector<net::NodeId> peers{3};
  const auto column = [](std::uint32_t ref) {
    snap::Writer w;
    w.u64(1);
    w.u32(0);  // prefix 0
    w.u64(1);  // one entry
    w.u32(3);
    w.u32(ref);
    return std::move(w).take();
  };
  const std::vector<std::uint8_t> ok = column(1);
  snap::Reader accepted{ok};
  ribs.restore_adj(0, accepted, arena, peers);
  ASSERT_NE(ribs.adj_get(0, 0, 3), nullptr);
  for (const std::uint32_t ref : {2u, 0xffffffffu}) {
    const std::vector<std::uint8_t> bytes = column(ref);
    snap::Reader r{bytes};
    EXPECT_THROW(ribs.restore_adj(0, r, arena, peers), snap::FormatError)
        << "ref " << ref;
  }
}

}  // namespace
}  // namespace bgpsim::rib
