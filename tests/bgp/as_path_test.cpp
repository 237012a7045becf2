#include "bgp/as_path.hpp"
#include "support/paths.hpp"

#include <gtest/gtest.h>

namespace bgpsim::bgp {
namespace {

TEST(AsPath, DefaultIsEmpty) {
  AsPath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.length(), 0u);
}

TEST(AsPath, InitializerListOrder) {
  const AsPath p = test::path_of({6, 4, 0});
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.first_hop(), 6u);
  EXPECT_EQ(p.origin(), 0u);
}

TEST(AsPath, Contains) {
  const AsPath p = test::path_of({6, 4, 0});
  EXPECT_TRUE(p.contains(6));
  EXPECT_TRUE(p.contains(4));
  EXPECT_TRUE(p.contains(0));
  EXPECT_FALSE(p.contains(5));
}

TEST(AsPath, PrependedBuildsPaperNotation) {
  // Node 5 adopting (6 4 0) holds (5 6 4 0).
  const AsPath adopted = test::paths().prepend(5, test::path_of({6, 4, 0}));
  EXPECT_EQ(adopted, test::path_of({5, 6, 4, 0}));
  EXPECT_EQ(adopted.first_hop(), 5u);
}

TEST(AsPath, PrependedDoesNotMutateOriginal) {
  const AsPath p = test::path_of({4, 0});
  (void)test::paths().prepend(5, p);
  EXPECT_EQ(p, test::path_of({4, 0}));
}

TEST(AsPath, SuffixFromFindsSubPath) {
  const AsPath p = test::path_of({5, 6, 4, 0});
  EXPECT_EQ(p.suffix_from(6), test::path_of({6, 4, 0}));
  EXPECT_EQ(p.suffix_from(5), p);
  EXPECT_EQ(p.suffix_from(0), test::path_of({0}));
}

TEST(AsPath, SuffixFromAbsentNodeIsEmpty) {
  const AsPath p = test::path_of({5, 6, 4, 0});
  EXPECT_TRUE(p.suffix_from(9).empty());
}

TEST(AsPath, EqualityAndOrdering) {
  EXPECT_EQ(test::path_of({1, 2}), test::path_of({1, 2}));
  EXPECT_NE(test::path_of({1, 2}), test::path_of({2, 1}));
  EXPECT_LT(test::path_of({1, 2}), test::path_of({1, 3}));
  EXPECT_LT(test::path_of({1}), test::path_of({1, 0}));  // prefix orders first
}

TEST(AsPath, ToStringPaperNotation) {
  EXPECT_EQ(test::path_of({6, 4, 0}).to_string(), "(6 4 0)");
  EXPECT_EQ(AsPath{}.to_string(), "()");
  EXPECT_EQ(test::path_of({7}).to_string(), "(7)");
}

TEST(AsPath, HopsSpanExposesSequence) {
  const AsPath p = test::path_of({3, 1, 0});
  const auto hops = p.hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0], 3u);
  EXPECT_EQ(hops[2], 0u);
}

}  // namespace
}  // namespace bgpsim::bgp
