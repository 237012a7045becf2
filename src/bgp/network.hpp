// Assembles a full BGP network over a topology.
#pragma once

#include <memory>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/speaker.hpp"
#include "fwd/fib.hpp"
#include "rib/local_ribs.hpp"
#include "net/channel.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::bgp {

/// One speaker per topology node, each behind its own serialized
/// processing queue, all sharing one Transport and one RIB store. This is
/// the object the experiment runner manipulates. Every path the network
/// builds, receives or restores lives in `paths`, which must outlive the
/// network. The network routes prefixes 0..prefixes-1; with more than one,
/// speakers batch their sends per peer.
class BgpNetwork {
 public:
  BgpNetwork(sim::Simulator& simulator, net::Topology& topology,
             const BgpConfig& config, const net::ProcessingDelay& processing,
             const sim::Rng& root_rng, PathArena& paths,
             std::uint32_t prefixes);

  [[nodiscard]] Speaker& speaker(net::NodeId n) { return *speakers_.at(n); }
  [[nodiscard]] const Speaker& speaker(net::NodeId n) const {
    return *speakers_.at(n);
  }
  [[nodiscard]] std::size_t size() const { return speakers_.size(); }

  [[nodiscard]] std::vector<fwd::Fib>& fibs() { return fibs_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }
  [[nodiscard]] net::Topology& topology() { return topo_; }

  /// Install the same hooks on every speaker.
  void set_hooks(const Speaker::Hooks& hooks);

  /// The destination AS announces `prefix` at the current time.
  void originate(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).originate(prefix);
  }

  /// The origin announces several prefixes at once (multi-prefix
  /// scenarios; advertisements go out batched per peer).
  void originate_batch(net::NodeId origin,
                       const std::vector<net::Prefix>& prefixes) {
    speaker(origin).originate_batch(prefixes);
  }

  /// Tdown: the origin withdraws the prefix (links stay up).
  void inject_tdown(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).withdraw_origin(prefix);
  }

  /// Correlated Tdown: the origin withdraws every listed prefix in one
  /// event (withdrawals go out batched per peer).
  void inject_tdown_batch(net::NodeId origin,
                          const std::vector<net::Prefix>& prefixes) {
    speaker(origin).withdraw_origin_batch(prefixes);
  }

  /// Tlong: a physical link fails (sessions drop, in-flight lost).
  void inject_link_failure(net::LinkId link) { transport_.fail_link(link); }

  /// Control-plane messages currently on the wire.
  [[nodiscard]] std::uint64_t control_messages_in_flight() const;

  /// True while any node still has queued/processing work, messages are in
  /// flight, or an MRAI timer holds a deferred decision. When false, the
  /// control plane has converged (remaining timers will expire silently).
  [[nodiscard]] bool busy() const;

  /// True while any MRAI timer is running anywhere (even without pending
  /// work). busy()==false && !timers_running() means fully drained.
  [[nodiscard]] bool timers_running() const;

  /// Sum of per-speaker counters across the network.
  [[nodiscard]] Speaker::Counters total_counters() const;

  /// Checkpoint codec: transport counters, the prefix count (a restore
  /// requires it to equal this network's), then per node the processing
  /// queue (with in-queue UpdateMsg payloads), speaker, and FIB. Every
  /// prefix the restore reads must be below the prefix count.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  sim::Simulator& sim_;
  net::Topology& topo_;
  PathArena& paths_;
  net::Transport transport_;
  rib::LocalRibs ribs_;  // shared by every speaker (declared before them)
  std::vector<fwd::Fib> fibs_;
  std::vector<std::unique_ptr<net::ProcessingQueue>> queues_;
  std::vector<std::unique_ptr<Speaker>> speakers_;
};

}  // namespace bgpsim::bgp
