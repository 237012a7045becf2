#include "bgp/assertion.hpp"

namespace bgpsim::bgp {

std::size_t assert_on_announce(AdjRibIn& rib, net::Prefix prefix,
                               net::NodeId from_peer, const AsPath& new_path) {
  return rib.erase_if(prefix, [&](net::NodeId peer, const AsPath& stored) {
    if (peer == from_peer) return false;
    if (!stored.contains(from_peer)) return false;
    return stored.suffix_from(from_peer) != new_path;
  });
}

std::size_t assert_on_withdraw(AdjRibIn& rib, net::Prefix prefix,
                               net::NodeId from_peer) {
  return rib.erase_if(prefix, [&](net::NodeId peer, const AsPath& stored) {
    return peer != from_peer && stored.contains(from_peer);
  });
}

}  // namespace bgpsim::bgp
