// One BGP speaker (one AS / router in the study).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/config.hpp"
#include "bgp/decision.hpp"
#include "bgp/messages.hpp"
#include "bgp/mrai.hpp"
#include "bgp/peer_plane.hpp"
#include "fwd/fib.hpp"
#include "net/channel.hpp"
#include "net/types.hpp"
#include "rib/local_ribs.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::bgp {

/// The path-vector protocol machine.
///
/// Inbound work (updates, session events) must be fed through handle_update
/// / handle_session *after* the node's processing delay — the network
/// (fwd::ProtocolNetwork) wires a net::ProcessingQueue in front of each
/// speaker. Outbound messages go to the Transport immediately (sending is
/// free; receiving costs CPU).
class Speaker {
 public:
  struct Hooks {
    /// Every UPDATE put on the wire (the convergence-time clock).
    std::function<void(net::NodeId from, net::NodeId to, const UpdateMsg&)>
        on_update_sent{};
    /// Loc-RIB best-path changes (nullopt = destination now unreachable).
    std::function<void(net::NodeId node, net::Prefix,
                       const std::optional<AsPath>& best)>
        on_best_changed{};
    /// Every UPDATE accepted off the wire (after the stray-peer filter,
    /// before the decision process).
    std::function<void(net::NodeId node, net::NodeId from, const UpdateMsg&)>
        on_update_received{};
    /// Session to `peer` observed up/down by this speaker.
    std::function<void(net::NodeId node, net::NodeId peer, bool up)>
        on_session_changed{};
    /// An MRAI timer toward `peer` expired; `was_pending` says whether a
    /// deferred decision was waiting behind it.
    std::function<void(net::NodeId node, net::NodeId peer, net::Prefix,
                       bool was_pending)>
        on_mrai_expired{};
    /// Whether on_mrai_expired must see every expiry at its exact time:
    /// then every MRAI timer runs as a queued event. When false it sees
    /// only the expiries that hold a decision, and the rest pass silently
    /// (bgp/mrai.hpp).
    bool every_mrai_expiry = true;
  };

  /// `paths` is the trial's path arena: every path this speaker builds or
  /// restores lands there. `ribs` is the network's RIB store; the speaker's
  /// routes live in its row `self`, and its prefixes are the store's
  /// 0..P-1.
  Speaker(net::NodeId self, BgpConfig config, sim::Simulator& simulator,
          net::Transport& transport, fwd::Fib& fib, sim::Rng rng,
          PathArena& paths, rib::LocalRibs& ribs);

  /// Establish sessions with the given peers (initially up neighbors).
  void set_peers(const std::vector<net::NodeId>& peers);

  void set_hooks(Hooks hooks) {
    hooks_ = std::move(hooks);
    mrai_.set_every_expiry(hooks_.on_mrai_expired && hooks_.every_mrai_expiry);
  }

  /// Originate `prefix` locally (the destination AS). Advertises (self) to
  /// every peer. Throws std::out_of_range unless `prefix` is below the
  /// store's prefix count.
  void originate(net::Prefix prefix);

  /// Withdraw a locally originated prefix — the study's Tdown event.
  void withdraw_origin(net::Prefix prefix);

  /// Originate several prefixes in one shot. With more than one prefix in
  /// the store the resulting advertisements are staged and flushed as one
  /// batched message per peer.
  void originate_batch(const std::vector<net::Prefix>& prefixes);

  /// Withdraw several locally originated prefixes at once — the
  /// correlated-failure Tdown (full-table event at one origin).
  void withdraw_origin_batch(const std::vector<net::Prefix>& prefixes);

  /// Inbound UPDATE from `from` (call after processing delay).
  void handle_update(net::NodeId from, const UpdateMsg& update);

  /// Inbound batched UPDATEs from `from` (one transport message, one
  /// processing-delay draw). Applies every contained update to the RIB,
  /// then runs ONE decision pass per touched prefix — the batched
  /// decision processing a shared SoA column block makes cheap.
  void handle_update_batch(net::NodeId from, const UpdateBatch& batch);

  /// Inbound message off the processing queue: an UpdateMsg or an
  /// UpdateBatch.
  void handle_message(net::NodeId from, const net::Payload& payload) {
    if (payload.is<UpdateBatch>()) {
      handle_update_batch(from, payload.get<UpdateBatch>());
    } else {
      handle_update(from, payload.get<UpdateMsg>());
    }
  }

  /// Session to `peer` went down/up (call after processing delay).
  void handle_session(net::NodeId peer, bool up);

  // ---- Introspection --------------------------------------------------

  [[nodiscard]] net::NodeId id() const { return self_; }
  [[nodiscard]] const BgpConfig& config() const { return config_; }
  /// The Loc-RIB path for `prefix`, or nullptr when unreachable.
  [[nodiscard]] const AsPath* best_path(net::Prefix prefix) const {
    return ribs_.best(self_, prefix);
  }
  /// The Adj-RIB-In route `peer` advertised for `prefix`, or nullptr.
  [[nodiscard]] const AsPath* adj_route(net::Prefix prefix,
                                        net::NodeId peer) const {
    return ribs_.adj_get(self_, prefix, peer);
  }
  /// Peers with an established session, ascending.
  [[nodiscard]] const std::vector<net::NodeId>& peers() const { return peers_; }
  [[nodiscard]] bool originates(net::Prefix prefix) const {
    return originated_.contains(prefix);
  }

  /// True when neither an MRAI timer holds a deferred decision nor a
  /// caution window holds a deferred backup adoption — i.e. this speaker
  /// will change nothing further unless new input arrives.
  [[nodiscard]] bool quiescent() const {
    return !mrai_.any_pending() && caution_lost_length_.empty();
  }

  /// True while any MRAI timer is running (even without pending work).
  [[nodiscard]] bool timers_running() const {
    return mrai_.running_count() > 0;
  }

  struct Counters {
    std::uint64_t announcements_sent = 0;
    std::uint64_t withdrawals_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t poison_reverse_discards = 0;
    std::uint64_t assertion_removals = 0;
    std::uint64_t ghost_flushes = 0;
    std::uint64_t ssld_conversions = 0;
    std::uint64_t best_path_changes = 0;
    std::uint64_t caution_holds = 0;  // backup adoptions deferred
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Checkpoint codec: every mutable protocol field (RNG, session set,
  /// origins, RIBs, MRAI bookkeeping, caution holds, Adj-RIB-Out,
  /// counters) in a fixed deterministic order.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  /// Stages outbound updates for the enclosing handler when the store
  /// holds more than one prefix; the destructor flushes them grouped per
  /// peer. A no-op at P = 1 or when a scope is already active, so
  /// single-prefix runs execute exactly the unbatched send path.
  class StagingScope {
   public:
    explicit StagingScope(Speaker& s)
        : s_{s}, active_{s.ribs_.prefix_count() > 1 && !s.staging_} {
      if (active_) s_.staging_ = true;
    }
    ~StagingScope() {
      if (active_) {
        s_.staging_ = false;
        s_.flush_staged();
      }
    }
    StagingScope(const StagingScope&) = delete;
    StagingScope& operator=(const StagingScope&) = delete;

   private:
    Speaker& s_;
    bool active_;
  };

  /// The RIB-mutation half of handle_update (everything but the decision
  /// pass), shared with batched delivery.
  void apply_update(net::NodeId from, const UpdateMsg& update);
  /// Send staged updates, grouped per peer (peers ascending, per-peer
  /// message order preserved); a group of one goes out as a plain
  /// UpdateMsg, so wire shapes only change when batching actually packs.
  void flush_staged();

  [[nodiscard]] bool is_peer(net::NodeId peer) const {
    return std::binary_search(peers_.begin(), peers_.end(), peer);
  }
  /// The position of session peer `peer` in peers_.
  [[nodiscard]] std::size_t peer_rank(net::NodeId peer) const {
    const auto it = std::lower_bound(peers_.begin(), peers_.end(), peer);
    if (it == peers_.end() || *it != peer) {
      throw std::logic_error{"update staged for a peer without a session"};
    }
    return static_cast<std::size_t>(it - peers_.begin());
  }

  void run_decision(net::Prefix prefix);
  void advertise_to_all(net::Prefix prefix);
  /// The send decision for (peer, prefix); `cell` is the plane's cell for
  /// that pair and `loc` the Loc-RIB path for `prefix` (nullptr: none),
  /// both found once by the caller.
  void consider_send(net::NodeId peer, net::Prefix prefix, OutboundCell& cell,
                     const AsPath* loc);
  void send_update(net::NodeId peer, net::Prefix prefix, OutboundCell& cell,
                   UpdateMsg update);
  void on_mrai_expired(net::NodeId peer, net::Prefix prefix,
                       OutboundCell& cell, bool was_pending);
  void ghost_flush(net::Prefix prefix);
  [[nodiscard]] sim::SimTime jittered_mrai();

  /// The update we currently want `peer` to hold (SSLD applied); `loc` is
  /// the caller's Loc-RIB lookup for `prefix`.
  [[nodiscard]] UpdateMsg desired_update(net::NodeId peer, net::Prefix prefix,
                                         const AsPath* loc);
  [[nodiscard]] static bool already_advertised(const OutboundCell& cell,
                                               const UpdateMsg& desired);

  net::NodeId self_;
  BgpConfig config_;
  sim::Simulator& sim_;
  net::Transport& transport_;
  fwd::Fib& fib_;
  sim::Rng rng_;
  PathArena& paths_;
  Hooks hooks_;

  std::vector<net::NodeId> peers_;  // ascending
  std::set<net::Prefix> originated_;
  rib::LocalRibs& ribs_;  // this speaker's routes are row self_
  /// Outbound state per (peer, prefix): the Adj-RIB-Out entry and the MRAI
  /// timer in one cell (declared before the timers that drive it).
  PeerPlane out_;
  MraiTimers mrai_;
  /// Prefixes under backup caution: adoption of paths longer than the
  /// recorded lost length is suppressed until the caution timer fires.
  std::map<net::Prefix, std::size_t> caution_lost_length_;
  Counters counters_;
  /// Multiprefix staging state: while a StagingScope is active, send_update
  /// appends here instead of hitting the transport. Always empty between
  /// scheduler events, so it never enters the checkpoint codec.
  bool staging_ = false;
  std::vector<std::pair<net::NodeId, UpdateMsg>> staged_;
  /// flush_staged's grouping buffers, reused across flushes: staging
  /// positions ordered by peer, and each peer rank's run bounds.
  std::vector<std::uint32_t> flush_order_;
  std::vector<std::uint32_t> flush_start_;
  /// handle_update_batch's first-touch dedup, one stamp per prefix:
  /// touch_stamp_[prefix] == batch_stamp_ marks a prefix already in
  /// touched_. Working state only, never checkpointed.
  std::vector<std::uint32_t> touch_stamp_;
  std::uint32_t batch_stamp_ = 0;
  std::vector<net::Prefix> touched_;
};

}  // namespace bgpsim::bgp
