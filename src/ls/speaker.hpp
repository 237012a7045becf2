// Link-state speaker: LSDB + flooding + delayed SPF.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "fwd/fib.hpp"
#include "ls/config.hpp"
#include "ls/lsa.hpp"
#include "net/channel.hpp"
#include "net/payload.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::ls {

/// An OSPF/IS-IS-like router on the shared substrate.
///
/// Loops here are *micro-loops*: while an LSA floods, nodes that already
/// ran SPF on the new topology disagree with nodes that have not — exactly
/// the transient inconsistency the paper describes, but bounded by
/// flooding + SPF delay rather than by MRAI rounds.
class LsSpeaker {
 public:
  struct Hooks {
    std::function<void(net::NodeId from, net::NodeId to, const Lsa&)>
        on_lsa_sent;
    /// SPF installed a new next hop for a prefix (nullopt = unreachable).
    std::function<void(net::NodeId node, net::Prefix,
                       std::optional<net::NodeId>)>
        on_route_changed;
  };

  LsSpeaker(net::NodeId self, LsConfig config, sim::Simulator& simulator,
            net::Transport& transport, fwd::Fib& fib, sim::Rng rng);

  void set_peers(const std::vector<net::NodeId>& peers);
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Start hosting `prefix` and flood the change.
  void originate(net::Prefix prefix);
  /// Stop hosting `prefix` (Tdown) and flood the change.
  void withdraw_origin(net::Prefix prefix);

  /// Inbound LSA (call after processing delay).
  void handle_lsa(net::NodeId from, const Lsa& lsa);
  /// Inbound message off the processing queue: an LsaMsg.
  void handle_message(net::NodeId from, const net::Payload& payload) {
    handle_lsa(from, payload.get<LsaMsg>().lsa);
  }
  /// Session change (call after processing delay): re-originate our LSA
  /// and, on up, exchange full databases.
  void handle_session(net::NodeId peer, bool up);

  /// Bring the router up: originate the initial self-LSA.
  void start();

  // ---- introspection ----
  [[nodiscard]] net::NodeId id() const { return self_; }
  /// True unless an SPF run is pending.
  [[nodiscard]] bool quiescent() const { return !spf_pending_; }
  [[nodiscard]] const Lsa* lsdb_entry(net::NodeId origin) const;
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::Prefix prefix) const {
    return fib_.next_hop(prefix);
  }

  struct Counters {
    std::uint64_t lsas_originated = 0;
    std::uint64_t lsas_flooded = 0;   // copies put on the wire
    std::uint64_t lsas_accepted = 0;  // newer-than-stored arrivals
    std::uint64_t lsas_ignored = 0;   // stale/duplicate arrivals
    std::uint64_t spf_runs = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Checkpoint codec: RNG, sessions, hosted/tracked prefixes, LSDB,
  /// sequence counter, SPF flag, counters. A pending delayed-SPF event
  /// stays in the event queue (in-place restores only).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  void originate_self_lsa();
  void flood(const Lsa& lsa, std::optional<net::NodeId> except);
  void schedule_spf();
  void run_spf();

  net::NodeId self_;
  LsConfig config_;
  sim::Simulator& sim_;
  net::Transport& transport_;
  fwd::Fib& fib_;
  sim::Rng rng_;
  Hooks hooks_;

  std::set<net::NodeId> peers_;
  std::set<net::Prefix> hosted_;
  std::set<net::Prefix> tracked_prefixes_;  // everything ever seen hosted
  std::map<net::NodeId, Lsa> lsdb_;
  std::uint64_t my_seq_ = 0;
  bool spf_pending_ = false;
  Counters counters_;
};

/// The snapshot codec of one LSA, for the speaker's LSDB and the network's
/// queued floods alike. A neighbour or prefix count the remaining bytes
/// cannot hold ends in snap::FormatError.
void save_lsa(snap::Writer& w, const Lsa& lsa);
[[nodiscard]] Lsa load_lsa(snap::Reader& r);

}  // namespace bgpsim::ls
