// PathArena unit suite: node denormalization, interning identity, the
// member mask (including a bit two ASes share), suffixes and ordering on
// arena paths, codec bytes (a path is a ref into the arena's node list),
// the arena section's one-pass restore and its rejections, snapshot
// decoding into the trial's arena, and the stability of node storage as
// the arena grows.
#include "bgp/path_arena.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/decision.hpp"
#include "rib/local_ribs.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {
namespace {

static_assert(std::is_trivially_copyable_v<AsPath>);

std::vector<std::uint8_t> encode(const AsPath& p) {
  snap::Writer w;
  p.save(w);
  return w.bytes();
}

TEST(PathArena, NodesDenormalizeOriginLengthAndMembers) {
  PathArena arena;
  const AsPath p = arena.make({6, 4, 0});
  EXPECT_EQ(p.first_hop(), 6u);
  EXPECT_EQ(p.origin(), 0u);
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.suffix_from(4).length(), 2u);
  EXPECT_EQ(p.suffix_from(4).origin(), 0u);
  EXPECT_TRUE(p.contains(6));
  EXPECT_TRUE(p.contains(4));
  EXPECT_TRUE(p.contains(0));
  EXPECT_FALSE(p.contains(5));  // bit 5 is clear: no walk at all
}

TEST(PathArena, HandlesAreTriviallyCopyable) {
  // A copy is the handle's bits: no refcount to bump or drop, and the copy
  // is the same node.
  PathArena arena;
  const AsPath p = arena.make({5, 4, 0});
  AsPath copy;
  std::memcpy(static_cast<void*>(&copy), &p, sizeof p);
  EXPECT_EQ(copy, p);
  EXPECT_EQ(copy.to_string(), "(5 4 0)");
  EXPECT_EQ(sizeof(AsPath), sizeof(void*));
}

TEST(PathArena, InterningReturnsTheSameNode) {
  PathArena arena;
  const AsPath a = arena.make({7});
  const AsPath b = arena.make({7});
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.prepend(7, AsPath{}), a);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(PathArena, EveryConstructorInterns) {
  // make() and prepend() go through the intern table, and load() names an
  // existing node: none of them adds a node the arena already holds.
  PathArena arena;
  const AsPath made = arena.make({5, 4, 0});
  ASSERT_EQ(arena.size(), 3u);
  const AsPath prepended = arena.prepend(5, arena.make({4, 0}));
  const std::vector<std::uint8_t> bytes = encode(made);
  snap::Reader r{bytes};
  const AsPath loaded = arena.load(r);
  r.finish();
  EXPECT_EQ(arena.size(), 3u);
  EXPECT_EQ(prepended, made);
  EXPECT_EQ(loaded, made);
}

TEST(PathArena, ArenasAreIndependent) {
  // Each trial interns in its own arena: the same hops built in two arenas
  // are two nodes, and neither arena sees the other's.
  PathArena first;
  PathArena second;
  const AsPath a = first.make({3, 1, 0});
  const AsPath b = second.make({3, 1, 0});
  EXPECT_NE(a, b);  // handle equality holds within one arena only
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(first.size(), 3u);
  EXPECT_EQ(second.size(), 3u);
}

TEST(PathArena, EqualPathsBuiltDifferentlyAreOneNode) {
  PathArena arena;
  // (5 4 0) from a vector, by prepending, from an initializer list: all
  // three resolve to the same node.
  const std::vector<net::NodeId> hops{5, 4, 0};
  const AsPath direct = arena.make(hops);
  const AsPath prepended = arena.prepend(5, arena.make({4, 0}));
  const AsPath list = arena.make({5, 4, 0});
  EXPECT_EQ(arena.size(), 3u);
  EXPECT_EQ(direct, prepended);
  EXPECT_EQ(prepended, list);
}

TEST(PathArena, HandleEqualityMatchesHopEquality) {
  // Over every pair of a small path family, == (a pointer comparison)
  // agrees with comparing the hop sequences.
  PathArena arena;
  std::vector<AsPath> family;
  for (net::NodeId a = 0; a < 3; ++a) {
    family.push_back(arena.make({a}));
    for (net::NodeId b = 0; b < 3; ++b) {
      family.push_back(arena.make({a, b}));
      family.push_back(arena.prepend(b, arena.make({a, b})));
    }
  }
  for (const AsPath& x : family) {
    for (const AsPath& y : family) {
      EXPECT_EQ(x == y, x.to_string() == y.to_string())
          << x.to_string() << " vs " << y.to_string();
    }
  }
}

TEST(PathArena, MaskBitCollisionWalksTheList) {
  // 3 and 67 share member bit 3 (67 = 64 + 3), so a path through 3 has
  // 67's bit set: contains(67) must walk and still answer false.
  static_assert(detail::member_bit(3) == detail::member_bit(67));
  PathArena arena;
  const AsPath through3 = arena.make({9, 3, 0});
  EXPECT_TRUE(through3.contains(3));
  EXPECT_FALSE(through3.contains(67));
  EXPECT_TRUE(through3.suffix_from(67).empty());
  const AsPath through67 = arena.prepend(67, through3);
  EXPECT_TRUE(through67.contains(67));
  EXPECT_TRUE(through67.contains(3));
  EXPECT_EQ(through67.suffix_from(3), arena.make({3, 0}));
}

TEST(PathArena, SuffixFromIsTheInteriorNode) {
  PathArena arena;
  const AsPath p = arena.make({6, 4, 0});
  const std::size_t before = arena.size();
  const AsPath suffix = p.suffix_from(4);
  EXPECT_EQ(arena.size(), before);  // no new node
  EXPECT_EQ(suffix, arena.make({4, 0}));
  EXPECT_EQ(p.suffix_from(6), p);
  EXPECT_TRUE(p.suffix_from(9).empty());
}

TEST(PathArena, OrderingAndPreferenceOnArenaPaths) {
  PathArena arena;
  EXPECT_LT(arena.make({1, 2}), arena.make({1, 3}));
  EXPECT_LT(arena.make({1}), arena.make({1, 0}));  // a prefix orders first
  EXPECT_GT(arena.make({2, 0}), arena.make({1, 9}));
  EXPECT_EQ(arena.make({4, 0}) <=> arena.make({4, 0}),
            std::strong_ordering::equal);
  // preferred(): shorter, then smaller next hop, then lexicographic.
  EXPECT_TRUE(preferred(arena.make({4, 0}), arena.make({5, 4, 0})));
  EXPECT_TRUE(preferred(arena.make({3, 0}), arena.make({7, 0})));
  EXPECT_TRUE(preferred(arena.make({3, 1, 0}), arena.make({3, 2, 0})));
  EXPECT_FALSE(preferred(arena.make({3, 1, 0}), arena.make({3, 1, 0})));
  // The Assertion check's comparison: a suffix against an announced path.
  const AsPath stored = arena.make({5, 6, 4, 0});
  EXPECT_EQ(stored.suffix_from(6), arena.make({6, 4, 0}));
  EXPECT_NE(stored.suffix_from(6), arena.make({6, 3, 0}));
}

TEST(PathArena, SaveWritesTheNodeRef) {
  PathArena arena;
  const AsPath path = arena.prepend(6, arena.make({4, 0}));
  // (0) is node 0, (4 0) node 1, (6 4 0) node 2: the path's ref is 3.
  EXPECT_EQ(path.ref(), 3u);
  snap::Writer expected;
  expected.u32(3);
  EXPECT_EQ(encode(path), expected.bytes());
  EXPECT_EQ(encode(AsPath{}), std::vector<std::uint8_t>(4, 0));

  const std::vector<std::uint8_t> bytes = encode(path);
  snap::Reader r{bytes};
  const AsPath decoded = arena.load(r);
  r.finish();
  EXPECT_EQ(decoded, arena.make({6, 4, 0}));
}

TEST(PathArena, LoadRejectsARefBeyondTheArena) {
  PathArena arena;
  (void)arena.make({4, 0});  // two nodes: refs 0..2 are valid
  for (const std::uint32_t ref : {3u, 1000u, 0xffffffffu}) {
    snap::Writer w;
    w.u32(ref);
    snap::Reader r{w.bytes()};
    EXPECT_THROW((void)arena.load(r), snap::FormatError) << "ref " << ref;
  }
  snap::Writer ok;
  ok.u32(2);
  snap::Reader r{ok.bytes()};
  EXPECT_EQ(arena.load(r), arena.make({4, 0}));
}

std::vector<std::uint8_t> arena_bytes(const PathArena& arena) {
  snap::Writer w;
  arena.save(w);
  return std::move(w).take();
}

/// An arena section of (parent ref, head) records.
std::vector<std::uint8_t> arena_section(
    std::initializer_list<std::pair<std::uint32_t, net::NodeId>> nodes) {
  snap::Writer w;
  w.u64(nodes.size());
  for (const auto& [parent_ref, head] : nodes) {
    w.u32(parent_ref);
    w.u32(head);
  }
  return std::move(w).take();
}

TEST(PathArena, SectionIsNodesInInterningOrder) {
  PathArena arena;
  (void)arena.make({5, 4, 0});
  (void)arena.make({6, 4, 0});
  EXPECT_EQ(arena_bytes(arena),
            arena_section({{0, 0}, {1, 4}, {2, 5}, {2, 6}}));
}

TEST(PathArena, RestoreRebuildsTheArenaAndResavesTheSameBytes) {
  PathArena saving;
  const AsPath a = saving.make({5, 4, 0});
  const AsPath b = saving.make({6, 4, 0});
  (void)saving.make({7});
  const std::vector<std::uint8_t> bytes = arena_bytes(saving);

  // Into an empty arena: the same nodes at the same indices.
  PathArena fresh;
  snap::Reader r{bytes};
  fresh.restore(r);
  r.finish();
  EXPECT_EQ(fresh.size(), saving.size());
  EXPECT_EQ(arena_bytes(fresh), bytes);
  EXPECT_EQ(fresh.make({5, 4, 0}).ref(), a.ref());
  EXPECT_EQ(fresh.make({6, 4, 0}).ref(), b.ref());
  EXPECT_EQ(fresh.size(), saving.size());  // both were already there

  // In place: every node is checked and none is added.
  snap::Reader again{bytes};
  saving.restore(again);
  again.finish();
  EXPECT_EQ(arena_bytes(saving), bytes);
  EXPECT_EQ(saving.make({5, 4, 0}), a);
}

TEST(PathArena, RestoreRejectsAParentRefAtOrAfterItsNode) {
  // Node 1 names itself (ref 2) or node 2 (ref 3) as its parent.
  for (const std::uint32_t parent_ref : {2u, 3u, 0xffffffffu}) {
    const auto bytes = arena_section({{0, 0}, {parent_ref, 4}, {1, 5}});
    PathArena arena;
    snap::Reader r{bytes};
    EXPECT_THROW(arena.restore(r), snap::FormatError)
        << "parent ref " << parent_ref;
  }
}

TEST(PathArena, RestoreRejectsADuplicateNode) {
  for (const auto& bytes :
       {arena_section({{0, 0}, {0, 0}}),
        arena_section({{0, 0}, {1, 4}, {1, 4}}),
        arena_section({{0, 0}, {1, 4}, {0, 7}, {1, 4}})}) {
    PathArena arena;
    snap::Reader r{bytes};
    EXPECT_THROW(arena.restore(r), snap::FormatError);
  }
}

TEST(PathArena, RestoreRejectsANodeTheArenaContradicts) {
  // The arena's node 1 is (4 0); the snapshot's node 1 is (5 0).
  PathArena arena;
  (void)arena.make({4, 0});
  const auto bytes = arena_section({{0, 0}, {1, 5}});
  snap::Reader r{bytes};
  EXPECT_THROW(arena.restore(r), snap::FormatError);
}

TEST(PathArena, RestoreRejectsEveryTruncation) {
  PathArena saving;
  (void)saving.make({5, 4, 0});
  (void)saving.make({6, 4, 0});
  const std::vector<std::uint8_t> bytes = arena_bytes(saving);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    PathArena arena;
    snap::Reader r{std::span<const std::uint8_t>{bytes}.first(cut)};
    EXPECT_THROW(arena.restore(r), snap::FormatError) << "cut to " << cut;
  }
}

TEST(PathArena, SnapshotLoadedPathsLandInTheTrialArena) {
  // A path decoded from a checkpoint (here a Loc-RIB row restored into a
  // fresh RIB) is a node of the restoring arena: it compares equal to the
  // same hops built there, and shares their nodes. The trial had already
  // built (4 0), the snapshot's first two nodes, so the restore checks
  // them and adds only (5 4 0).
  PathArena saving;
  rib::LocalRibs ribs{1, 1};
  ASSERT_TRUE(ribs.set_best(0, 0, saving.make({5, 4, 0})));
  snap::Writer w;
  saving.save(w);
  ribs.save_best(0, w);

  PathArena trial;
  const AsPath built = trial.make({4, 0});
  const std::size_t before = trial.size();
  rib::LocalRibs restored{1, 1};
  snap::Reader r{w.bytes()};
  trial.restore(r);
  restored.restore_best(0, r, trial);
  r.finish();
  ASSERT_NE(restored.best(0, 0), nullptr);
  EXPECT_EQ(*restored.best(0, 0), trial.make({5, 4, 0}));
  EXPECT_EQ(restored.best(0, 0)->suffix_from(4), built);
  EXPECT_EQ(trial.size(), before + 1);  // only (5) was new
}

TEST(PathArena, PathsStayValidAsTheArenaGrows) {
  // Nodes never move: a path built first reads the same after the arena
  // has grown through many chunks and intern-table resizes.
  PathArena arena;
  const AsPath first = arena.make({6, 4, 0});
  AsPath last = first;
  for (net::NodeId hop = 100; hop < 5100; ++hop) {
    last = arena.prepend(hop, last);
  }
  EXPECT_EQ(first.to_string(), "(6 4 0)");
  EXPECT_EQ(first.origin(), 0u);
  EXPECT_EQ(last.length(), 5003u);
  EXPECT_EQ(last.suffix_from(6), first);
  EXPECT_EQ(arena.make({6, 4, 0}), first);
}

TEST(PathArena, SizeCountsDistinctNodes) {
  // Shared suffixes are stored once: (5 4 0), (6 4 0) and (4 0) need the
  // nodes 0, (4 0), (5 4 0) and (6 4 0).
  PathArena arena;
  EXPECT_EQ(arena.size(), 0u);
  (void)arena.make({5, 4, 0});
  (void)arena.make({6, 4, 0});
  (void)arena.make({4, 0});
  EXPECT_EQ(arena.size(), 4u);
}

}  // namespace
}  // namespace bgpsim::bgp
