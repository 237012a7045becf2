// Per-(peer, prefix) Minimum Route Advertisement Interval timers.
//
// RFC 1771 §9.2.1.1: a route to a given destination may be advertised to a
// given peer at most once per MRAI. The timer starts when an advertisement
// is sent; while it runs, newer decisions are *held* (pending) and the most
// current one is sent at expiry — intermediate flaps are never sent at all.
//
// A timer is the MRAI half of the speaker's outbound cell for (peer,
// prefix) (bgp/peer_plane.hpp); the speaker finds the cell once per send
// decision and hands it here. The plane is the speaker's; MraiTimers only
// reads and writes the cells' MRAI halves.
//
// Most timers expire with nothing held, so a timer starts silent: a bare
// (deadline, seq) in its cell and in the simulator's deadline ledger,
// with no queued closure (sim::Simulator "silent deadlines"). Only a timer
// that must act at expiry — one that comes to hold a decision, or every
// timer while an observer wants every expiry — is promoted to a queued
// event at its original (deadline, seq), so it fires exactly where a
// queued timer would have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "bgp/peer_plane.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {

class MraiTimers {
 public:
  /// Callback at the expiry of a promoted timer, with the timer's cell
  /// (its MRAI half already stopped); `was_pending` says whether a held
  /// decision accumulated while the timer ran. Silent timers expire
  /// without it (see set_every_expiry).
  using ExpiryHandler = std::function<void(
      net::NodeId peer, net::Prefix prefix, OutboundCell& cell,
      bool was_pending)>;

  MraiTimers(sim::Simulator& simulator, PeerPlane& plane)
      : sim_{simulator}, plane_{plane} {}

  void set_expiry_handler(ExpiryHandler h) { on_expiry_ = std::move(h); }

  /// When set, timers started from here on are queued events from the
  /// start, so the expiry handler sees every expiry at its exact time.
  void set_every_expiry(bool every) { every_expiry_ = every; }

  [[nodiscard]] bool running(const OutboundCell& cell) const {
    return cell.mrai.seq != 0 &&
           !sim_.has_passed(cell.mrai.deadline, cell.mrai.seq);
  }
  [[nodiscard]] bool running(net::NodeId peer, net::Prefix prefix) const;
  [[nodiscard]] bool pending(net::NodeId peer, net::Prefix prefix) const;

  /// Overwrite the pending flag of `cell`'s timer — the (peer, prefix)
  /// cell — promoting it when it comes to hold a decision. No-op when the
  /// timer is not running.
  void set_pending(net::NodeId peer, net::Prefix prefix, OutboundCell& cell,
                   bool pending);

  /// Start `cell`'s timer (must not be running) to expire after
  /// `duration`.
  void start(net::NodeId peer, net::Prefix prefix, OutboundCell& cell,
             sim::SimTime duration);

  /// Stop every timer toward `peer` (session down). The cells stay; the
  /// caller drops the row.
  void cancel_peer(net::NodeId peer);

  /// True if any running timer holds a pending decision — i.e. protocol
  /// work is still queued behind MRAI. O(1): a count is kept.
  [[nodiscard]] bool any_pending() const { return pending_count_ > 0; }

  /// Timers still running at the simulator's current position (a scan).
  [[nodiscard]] std::size_t running_count() const;

  /// Checkpoint codec: every running timer's (deadline µs, seq, pending),
  /// in ascending (peer, prefix) order. The deadlines themselves live in
  /// the simulator (ledger or queue), whose pending set the run-level
  /// codec verifies; an in-place restore pairs promoted timers back up
  /// with their still-queued closures by seq. Restore runs after the
  /// simulator clock, so it rejects a deadline already passed there, a seq
  /// not yet drawn, a repeated key, and a held decision with no queued
  /// expiry; it also rejects a prefix at or above `prefixes` and a peer
  /// outside `peers` (the speaker's sessions, ascending). It rewrites only
  /// the cells' MRAI halves.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r, std::uint32_t prefixes,
                     std::span<const net::NodeId> peers);

 private:
  /// Expiry of a promoted timer (its queued closure).
  void fire(net::NodeId peer, net::Prefix prefix);

  /// Queue a silent timer's closure at its (deadline, seq).
  void promote(net::NodeId peer, net::Prefix prefix, MraiState& st);

  sim::Simulator& sim_;
  PeerPlane& plane_;
  std::size_t pending_count_ = 0;  // running timers holding a decision
  bool every_expiry_ = false;
  ExpiryHandler on_expiry_;
};

}  // namespace bgpsim::bgp
