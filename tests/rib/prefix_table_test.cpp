// PrefixTable: dense interning is insertion-ordered and stable, origins
// default to invalid, and the checkpoint codec reproduces the exact id
// assignment (warm starts depend on ids matching bit-for-bit).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "net/types.hpp"
#include "rib/prefix_table.hpp"
#include "snap/codec.hpp"

namespace bgpsim::rib {
namespace {

TEST(PrefixTable, InternAssignsDenseIdsInInsertionOrder) {
  PrefixTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.intern(7), 0u);
  EXPECT_EQ(table.intern(3), 1u);
  EXPECT_EQ(table.intern(900), 2u);
  EXPECT_EQ(table.size(), 3u);
  // Re-interning is idempotent: same id, no growth.
  EXPECT_EQ(table.intern(3), 1u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.prefix_of(0), 7u);
  EXPECT_EQ(table.prefix_of(1), 3u);
  EXPECT_EQ(table.prefix_of(2), 900u);
}

TEST(PrefixTable, IdOfUnknownPrefixIsInvalid) {
  PrefixTable table;
  table.intern(1);
  EXPECT_EQ(table.id_of(1), 0u);
  EXPECT_EQ(table.id_of(2), kInvalidPrefixId);
}

TEST(PrefixTable, OriginDefaultsToInvalidAndIsUpdatable) {
  PrefixTable table;
  table.intern(5);
  EXPECT_EQ(table.origin_of(5), net::kInvalidNode);
  EXPECT_EQ(table.origin_of(6), net::kInvalidNode);  // never interned

  table.set_origin(5, 12);
  EXPECT_EQ(table.origin_of(5), 12u);
  table.set_origin(5, 13);  // update in place
  EXPECT_EQ(table.origin_of(5), 13u);

  // set_origin interns on demand.
  table.set_origin(6, 2);
  EXPECT_EQ(table.id_of(6), 1u);
  EXPECT_EQ(table.origin_of(6), 2u);
}

TEST(PrefixTable, SaveRestoreReproducesIdAssignmentAndOrigins) {
  PrefixTable table;
  table.intern(40);
  table.intern(10);
  table.set_origin(10, 3);
  table.intern(20);
  table.set_origin(20, 7);

  snap::Writer w;
  table.save_state(w);

  PrefixTable restored;
  restored.intern(999);  // pre-existing state must be replaced wholesale
  snap::Reader r{w.bytes()};
  restored.restore_state(r);

  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.id_of(40), 0u);
  EXPECT_EQ(restored.id_of(10), 1u);
  EXPECT_EQ(restored.id_of(20), 2u);
  EXPECT_EQ(restored.id_of(999), kInvalidPrefixId);
  EXPECT_EQ(restored.origin_of(40), net::kInvalidNode);
  EXPECT_EQ(restored.origin_of(10), 3u);
  EXPECT_EQ(restored.origin_of(20), 7u);

  // A second snapshot of the restored table is byte-identical.
  snap::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(PrefixTable, IndexCoversEveryPrefixBelowTheLimitAndNoMore) {
  // The prefix -> id index is a vector indexed by the prefix value: the
  // last valid prefix interns, the limit itself is refused, and a lookup
  // past the index is simply unknown.
  PrefixTable table;
  const net::Prefix last = net::kMaxPrefixes - 1;
  EXPECT_EQ(table.intern(last), 0u);
  EXPECT_EQ(table.intern(2), 1u);
  EXPECT_EQ(table.id_of(last), 0u);
  EXPECT_EQ(table.id_of(3), kInvalidPrefixId);
  EXPECT_THROW((void)table.intern(net::kMaxPrefixes), std::out_of_range);
  EXPECT_EQ(table.id_of(net::kMaxPrefixes), kInvalidPrefixId);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace bgpsim::rib
