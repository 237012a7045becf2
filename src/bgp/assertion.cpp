#include "bgp/assertion.hpp"

#include <vector>

namespace bgpsim::bgp {

// std::erase_if keeps the survivors in order, so the column stays sorted.

std::size_t assert_on_announce(rib::PeerColumn& column, net::NodeId from_peer,
                               const AsPath& new_path) {
  return std::erase_if(column, [&](const rib::PeerRoute& entry) {
    const auto& [peer, stored] = entry;
    if (peer == from_peer) return false;
    if (!stored.contains(from_peer)) return false;
    return stored.suffix_from(from_peer) != new_path;
  });
}

std::size_t assert_on_withdraw(rib::PeerColumn& column, net::NodeId from_peer) {
  return std::erase_if(column, [&](const rib::PeerRoute& entry) {
    const auto& [peer, stored] = entry;
    return peer != from_peer && stored.contains(from_peer);
  });
}

}  // namespace bgpsim::bgp
