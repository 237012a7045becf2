// PathArena unit suite: node denormalization, interning identity, the
// member mask (including a bit two ASes share), suffixes and ordering on
// arena paths, codec bytes, snapshot decoding into the trial's arena, and
// the stability of node storage as the arena grows.
#include "bgp/path_arena.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <cstdint>
#include <cstring>
#include <type_traits>
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
  // make(), prepend() and load() all go through the intern table: none of
  // them adds a node the arena already holds.
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

TEST(PathArena, SaveBytesMatchTheHopByHopForm) {
  PathArena arena;
  const std::vector<std::uint8_t> bytes =
      encode(arena.prepend(6, arena.make({4, 0})));
  // Hop count, then each hop front first, all little-endian.
  snap::Writer expected;
  expected.u64(3);
  for (const net::NodeId hop : {6u, 4u, 0u}) expected.u32(hop);
  EXPECT_EQ(bytes, expected.bytes());
  EXPECT_EQ(encode(AsPath{}), std::vector<std::uint8_t>(8, 0));

  snap::Reader r{bytes};
  const AsPath decoded = arena.load(r);
  r.finish();
  EXPECT_EQ(decoded, arena.make({6, 4, 0}));
}

TEST(PathArena, LoadRejectsAnOverlongHopCount) {
  snap::Writer w;
  w.u64(1000);  // claims 1000 hops, carries one
  w.u32(4);
  PathArena arena;
  snap::Reader r{w.bytes()};
  EXPECT_THROW((void)arena.load(r), snap::FormatError);
}

TEST(PathArena, SnapshotLoadedPathsLandInTheTrialArena) {
  // A path decoded from a checkpoint (here a Loc-RIB row restored into a
  // fresh RIB) is a node of the restoring arena: it compares equal to the
  // same hops built there, and shares their nodes.
  PathArena saving;
  rib::LocalRibs ribs{1, 1};
  ASSERT_TRUE(ribs.set_best(0, 0, saving.make({5, 4, 0})));
  snap::Writer w;
  ribs.save_best(0, w);

  PathArena trial;
  const AsPath built = trial.make({4, 0});
  const std::size_t before = trial.size();
  rib::LocalRibs restored{1, 1};
  snap::Reader r{w.bytes()};
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
