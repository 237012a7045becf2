#include "fwd/fib.hpp"

#include <cassert>

namespace bgpsim::fwd {

bool Fib::set_next_hop(net::Prefix prefix, net::NodeId next_hop) {
  assert(next_hop != net::kInvalidNode);
  if (prefix >= routes_.size()) {
    routes_.resize(prefix + std::size_t{1}, net::kInvalidNode);
  }
  const net::NodeId previous = routes_[prefix];
  if (previous == next_hop) return false;
  routes_[prefix] = next_hop;
  if (previous == net::kInvalidNode) {
    ++route_count_;
    notify(prefix, std::nullopt, next_hop);
  } else {
    notify(prefix, previous, next_hop);
  }
  return true;
}

bool Fib::clear_route(net::Prefix prefix) {
  if (prefix >= routes_.size() || routes_[prefix] == net::kInvalidNode) {
    return false;
  }
  const net::NodeId previous = routes_[prefix];
  routes_[prefix] = net::kInvalidNode;
  --route_count_;
  notify(prefix, previous, std::nullopt);
  return true;
}

void Fib::save_state(snap::Writer& w) const {
  w.u64(route_count_);
  for (net::Prefix prefix = 0; prefix < routes_.size(); ++prefix) {
    if (routes_[prefix] == net::kInvalidNode) continue;
    w.u32(prefix);
    w.u32(routes_[prefix]);
  }
}

void Fib::restore_state(snap::Reader& r, std::uint32_t prefixes) {
  // The checkpointed table as a dense plane (a repeated prefix keeps its
  // last hop).
  std::vector<net::NodeId> desired;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r, prefixes);
    const net::NodeId hop = r.u32();
    if (hop == net::kInvalidNode) {
      throw snap::FormatError{"FIB entry for prefix " +
                              std::to_string(prefix) + " has no next hop"};
    }
    if (prefix >= desired.size()) {
      desired.resize(prefix + std::size_t{1}, net::kInvalidNode);
    }
    desired[prefix] = hop;
  }
  // Clear stale entries first, then install the checkpointed ones, each
  // in ascending prefix order (a deterministic notify order).
  for (net::Prefix prefix = 0; prefix < routes_.size(); ++prefix) {
    if (prefix >= desired.size() || desired[prefix] == net::kInvalidNode) {
      clear_route(prefix);
    }
  }
  for (net::Prefix prefix = 0; prefix < desired.size(); ++prefix) {
    if (desired[prefix] != net::kInvalidNode) {
      set_next_hop(prefix, desired[prefix]);
    }
  }
}

void Fib::notify(net::Prefix prefix, std::optional<net::NodeId> previous,
                 std::optional<net::NodeId> current) const {
  for (const auto& observer : observers_) {
    if (observer) observer(prefix, previous, current);
  }
}

}  // namespace bgpsim::fwd
