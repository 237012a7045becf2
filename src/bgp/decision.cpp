#include "bgp/decision.hpp"

#include <algorithm>

#include "bgp/policy.hpp"

namespace bgpsim::bgp {

bool preferred(const AsPath& a, const AsPath& b) {
  if (a.length() != b.length()) return a.length() < b.length();
  if (a.first_hop() != b.first_hop()) return a.first_hop() < b.first_hop();
  return std::ranges::lexicographical_compare(a.hops(), b.hops());
}

std::optional<AsPath> select_best(const rib::PeerColumn& column,
                                  net::NodeId self,
                                  const net::RelationshipTable* policy) {
  const AsPath* best = nullptr;
  int best_pref = 0;
  for (const auto& [peer, path] : column) {
    if (path.contains(self)) continue;  // poison reverse
    const int pref = policy ? policy_local_pref(*policy, self, peer) : 0;
    if (!best || pref > best_pref ||
        (pref == best_pref && preferred(path, *best))) {
      best = &path;
      best_pref = pref;
    }
  }
  if (!best) return std::nullopt;
  return *best;
}

}  // namespace bgpsim::bgp
