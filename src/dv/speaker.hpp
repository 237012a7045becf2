// RIP-like distance-vector speaker (baseline comparator).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "dv/config.hpp"
#include "fwd/fib.hpp"
#include "net/channel.hpp"
#include "net/payload.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::dv {

/// One (prefix, metric) pair on the wire; a full update carries the
/// sender's table view after split-horizon / poison-reverse filtering.
struct DvUpdate {
  std::vector<std::pair<net::Prefix, int>> routes;
};

/// A RIP-like router: hop-count metrics, Bellman-Ford relaxation,
/// counting-to-infinity, triggered updates.
class DvSpeaker {
 public:
  struct Hooks {
    /// Every update message put on the wire.
    std::function<void(net::NodeId from, net::NodeId to, const DvUpdate&)>
        on_update_sent;
    /// Route table change for a prefix (nullopt metric = unreachable).
    std::function<void(net::NodeId node, net::Prefix, std::optional<int>)>
        on_route_changed;
  };

  DvSpeaker(net::NodeId self, DvConfig config, sim::Simulator& simulator,
            net::Transport& transport, fwd::Fib& fib, sim::Rng rng);

  void set_peers(const std::vector<net::NodeId>& peers);
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Originate `prefix` at metric 0 and trigger an update.
  void originate(net::Prefix prefix);

  /// Withdraw an origination: the route is poisoned (metric = infinity)
  /// and the poison propagates — the Tdown equivalent.
  void withdraw_origin(net::Prefix prefix);

  /// Inbound update (call after processing delay).
  void handle_update(net::NodeId from, const DvUpdate& update);
  /// Inbound message off the processing queue: a DvUpdate.
  void handle_message(net::NodeId from, const net::Payload& payload) {
    handle_update(from, payload.get<DvUpdate>());
  }

  /// Session state change (call after processing delay).
  void handle_session(net::NodeId peer, bool up);

  // ---- introspection ----
  [[nodiscard]] net::NodeId id() const { return self_; }
  /// Current metric for `prefix` (nullopt: no entry or at infinity).
  [[nodiscard]] std::optional<int> metric(net::Prefix prefix) const;
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::Prefix prefix) const;
  /// True unless a triggered update is pending. (Periodic updates, if
  /// enabled, keep firing regardless — use triggered-only mode for
  /// quiescence-based experiments.)
  [[nodiscard]] bool quiescent() const { return !trigger_pending_; }

  struct Counters {
    std::uint64_t updates_sent = 0;
    std::uint64_t routes_advertised = 0;
    std::uint64_t poisoned_advertisements = 0;  // poison-reverse entries
    std::uint64_t route_changes = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Checkpoint codec: RNG, sessions, origins, route table, trigger flag,
  /// counters. Pending trigger/periodic events stay in the event queue; a
  /// fresh-graph restore is only valid in triggered-only mode at quiescence
  /// (no periodic refresh events outstanding).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  struct Entry {
    int metric = 0;
    net::NodeId next_hop = net::kInvalidNode;  // kInvalidNode: originated
  };

  /// Apply one learned (prefix, metric-at-sender) from `from`.
  void relax(net::NodeId from, net::Prefix prefix, int sender_metric);
  void after_change(net::Prefix prefix);
  void schedule_trigger();
  void send_full_table();
  void start_periodic();

  net::NodeId self_;
  DvConfig config_;
  sim::Simulator& sim_;
  net::Transport& transport_;
  fwd::Fib& fib_;
  sim::Rng rng_;
  Hooks hooks_;

  std::set<net::NodeId> peers_;
  std::set<net::Prefix> originated_;
  std::map<net::Prefix, Entry> table_;  // includes infinity (poisoned) rows
  bool trigger_pending_ = false;
  Counters counters_;
};

}  // namespace bgpsim::dv
