#include "bgp/messages.hpp"
#include "support/paths.hpp"

#include <gtest/gtest.h>

namespace bgpsim::bgp {
namespace {

TEST(UpdateMsg, AnnounceFactory) {
  const auto msg = UpdateMsg::announce(3, test::path_of({5, 4, 0}));
  EXPECT_EQ(msg.prefix, 3u);
  EXPECT_FALSE(msg.is_withdrawal());
  ASSERT_TRUE(msg.path.has_value());
  EXPECT_EQ(*msg.path, test::path_of({5, 4, 0}));
}

TEST(UpdateMsg, WithdrawFactory) {
  const auto msg = UpdateMsg::withdraw(7);
  EXPECT_EQ(msg.prefix, 7u);
  EXPECT_TRUE(msg.is_withdrawal());
  EXPECT_FALSE(msg.path.has_value());
}

TEST(UpdateMsg, ToStringForms) {
  EXPECT_EQ(UpdateMsg::announce(0, test::path_of({6, 4, 0})).to_string(),
            "announce p0 (6 4 0)");
  EXPECT_EQ(UpdateMsg::withdraw(2).to_string(), "withdraw p2");
}

}  // namespace
}  // namespace bgpsim::bgp
