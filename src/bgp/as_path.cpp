#include "bgp/as_path.hpp"

#include <algorithm>

namespace bgpsim::bgp {

std::strong_ordering operator<=>(AsPath a, AsPath b) {
  const auto ah = a.hops();
  const auto bh = b.hops();
  return std::lexicographical_compare_three_way(ah.begin(), ah.end(),
                                                bh.begin(), bh.end());
}

std::string AsPath::to_string() const {
  std::string out = "(";
  bool first = true;
  for (const detail::PathNode* n = node_; n != nullptr; n = n->parent) {
    if (!first) out += ' ';
    first = false;
    out += std::to_string(n->head);
  }
  out += ')';
  return out;
}

}  // namespace bgpsim::bgp
