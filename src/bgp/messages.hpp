// BGP UPDATE wire messages.
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/types.hpp"

namespace bgpsim::bgp {

/// A BGP UPDATE for one prefix: either an announcement carrying the
/// sender's full AS path, or an explicit withdrawal.
struct UpdateMsg {
  net::Prefix prefix = 0;
  /// Engaged: announcement with this path. Empty: withdrawal.
  std::optional<AsPath> path;

  [[nodiscard]] bool is_withdrawal() const { return !path.has_value(); }

  [[nodiscard]] static UpdateMsg announce(net::Prefix p, AsPath path) {
    return UpdateMsg{p, std::move(path)};
  }
  [[nodiscard]] static UpdateMsg withdraw(net::Prefix p) {
    return UpdateMsg{p, std::nullopt};
  }

  [[nodiscard]] std::string to_string() const {
    if (is_withdrawal()) return "withdraw p" + std::to_string(prefix);
    return "announce p" + std::to_string(prefix) + " " + path->to_string();
  }
};

// net::Payload relocates a trivially copyable message with a memcpy.
static_assert(std::is_trivially_copyable_v<UpdateMsg>);

/// Several UPDATEs to one peer carried in a single transport message —
/// the NLRI-packing analogue for multi-prefix scenarios. One batch costs
/// one propagation delay and one receiver processing-queue draw; the
/// receiver applies every contained update and then runs one decision
/// pass per touched prefix. Only constructed by a network routing more
/// than one prefix (a batch of one is sent as a plain UpdateMsg), so
/// single-prefix event streams never see it.
struct UpdateBatch {
  std::vector<UpdateMsg> updates;
};

}  // namespace bgpsim::bgp
