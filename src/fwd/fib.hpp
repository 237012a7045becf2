// Forwarding Information Base: per-node next-hop table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::fwd {

/// One node's next-hop table, written by the routing protocol and read by
/// the data plane on every packet hop.
///
/// Observer hooks report changes: the metrics loop detector maintains the
/// global next-hop graph from them, the data plane retires speculative
/// packets whose path changed, and the oracle cross-checks routes.
class Fib {
 public:
  using Observer = std::function<void(net::Prefix prefix,
                                      std::optional<net::NodeId> previous,
                                      std::optional<net::NodeId> current)>;

  /// Install (or replace) the next hop for `prefix`. Returns true if the
  /// entry changed.
  bool set_next_hop(net::Prefix prefix, net::NodeId next_hop);

  /// Remove the route for `prefix`. Returns true if an entry was removed.
  bool clear_route(net::Prefix prefix);

  [[nodiscard]] std::optional<net::NodeId> next_hop(net::Prefix prefix) const {
    if (prefix >= routes_.size() || routes_[prefix] == net::kInvalidNode) {
      return std::nullopt;
    }
    return routes_[prefix];
  }

  [[nodiscard]] std::size_t route_count() const { return route_count_; }

  /// Subscribe in addition to the observers already installed; every
  /// observer sees every change, in registration order.
  void add_observer(Observer obs) { observers_.push_back(std::move(obs)); }

  /// Checkpoint the route table, ascending by prefix.
  void save_state(snap::Writer& w) const;

  /// Restore by *reconciling*: install every checkpointed entry and clear
  /// every entry absent from the checkpoint, all through the normal
  /// set_next_hop / clear_route paths so observers (loop detector, oracle)
  /// rebuild their mirrors. Restoring a state identical to the current one
  /// therefore notifies nobody — the property the in-place round-trip
  /// probes rely on. `prefixes` is the owning network's prefix count: a
  /// checkpointed prefix at or above it is rejected.
  void restore_state(snap::Reader& r, std::uint32_t prefixes);

 private:
  void notify(net::Prefix prefix, std::optional<net::NodeId> previous,
              std::optional<net::NodeId> current) const;

  /// Next hop per prefix value; kInvalidNode = no route. Grown on the
  /// first write beyond its end.
  std::vector<net::NodeId> routes_;
  std::size_t route_count_ = 0;
  std::vector<Observer> observers_;
};

}  // namespace bgpsim::fwd
