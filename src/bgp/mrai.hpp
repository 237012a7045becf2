// Per-(peer, prefix) Minimum Route Advertisement Interval timers.
//
// RFC 1771 §9.2.1.1: a route to a given destination may be advertised to a
// given peer at most once per MRAI. The timer starts when an advertisement
// is sent; while it runs, newer decisions are *held* (pending) and the most
// current one is sent at expiry — intermediate flaps are never sent at all.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "bgp/peer_plane.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {

class MraiTimers {
 public:
  /// Callback at timer expiry; `was_pending` says whether a held decision
  /// accumulated while the timer ran.
  using ExpiryHandler =
      std::function<void(net::NodeId peer, net::Prefix prefix, bool was_pending)>;

  /// One expiry inside a batched delivery, in exact firing order.
  struct Expiry {
    net::NodeId peer;
    net::Prefix prefix;
    bool was_pending;
  };

  /// Callback for a batch of two or more expiries due at the same instant
  /// (simulator burst delivery). The receiver must process the batch in
  /// order, producing the same observable effects as per-item expiry
  /// handling; single expiries still go through the ExpiryHandler. When no
  /// burst handler is set, every expiry is delivered individually.
  using BurstHandler = std::function<void(const std::vector<Expiry>&)>;

  void set_expiry_handler(ExpiryHandler h) { on_expiry_ = std::move(h); }
  void set_burst_handler(BurstHandler h) { on_burst_ = std::move(h); }

  [[nodiscard]] bool running(net::NodeId peer, net::Prefix prefix) const;
  [[nodiscard]] bool pending(net::NodeId peer, net::Prefix prefix) const;

  /// Overwrite the pending flag for a *running* timer. No-op when the timer
  /// is not running.
  void set_pending(net::NodeId peer, net::Prefix prefix, bool pending);

  /// Start the timer (must not be running) to expire after `duration`.
  void start(net::NodeId peer, net::Prefix prefix, sim::SimTime duration,
             sim::Simulator& simulator);

  /// Cancel all timers toward `peer` (session down).
  void cancel_peer(net::NodeId peer, sim::Simulator& simulator);

  /// True if any running timer holds a pending decision — i.e. protocol
  /// work is still queued behind MRAI. O(1): a count is kept.
  [[nodiscard]] bool any_pending() const { return pending_count_ > 0; }

  [[nodiscard]] std::size_t running_count() const { return running_count_; }

  /// Checkpoint codec. Only the bookkeeping is serialized, in ascending
  /// (peer, prefix) order; the expiry events themselves live in the event
  /// queue. An in-place restore pairs the planes back up with the
  /// still-scheduled closures (which capture keys by value); a fresh
  /// restore is only valid when no timers are running.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  struct State {
    sim::EventId ev{};  // value 0: not running
    bool pending = false;
  };

  /// Expiry entry point for the scheduled closure: under burst delivery
  /// (wheel backend) it additionally consumes every immediately following
  /// event that is one of this object's own timers due at the same
  /// instant, then dispatches the whole batch. Each timer's event carries
  /// its (peer, prefix) as the scheduler tag, so matching the next event
  /// to a timer is one plane lookup.
  void fire(net::NodeId peer, net::Prefix prefix, sim::Simulator& simulator);

  [[nodiscard]] static bool is_running(const State* st) {
    return st != nullptr && st->ev.value != 0;
  }
  /// Mark a running timer stopped (fired, consumed or cancelled).
  void stop(State& st);

  PeerPlane<State> timers_;
  std::size_t running_count_ = 0;
  std::size_t pending_count_ = 0;  // running timers holding a decision
  ExpiryHandler on_expiry_;
  BurstHandler on_burst_;
  std::vector<Expiry> batch_;  // reused across fires; no steady-state alloc
};

}  // namespace bgpsim::bgp
