// Reliable, in-order, point-to-point message delivery (a TCP stand-in).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/payload.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::net {

/// A control-plane message in flight or queued for processing.
struct Envelope {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Payload payload;
};

/// Delivers control-plane messages between adjacent nodes.
///
/// Semantics (matching the study's use of BGP-over-TCP):
///  - delivery only over an up link, after the link's propagation delay;
///  - per-(sender, receiver) FIFO ordering (guaranteed here by fixed delay
///    and the event queue's FIFO tie-break);
///  - when a link fails, messages still in flight on it are lost and both
///    endpoints are notified at the failure instant (session reset).
class Transport {
 public:
  using DeliveryHandler = std::function<void(Envelope)>;
  /// self noticed that its session to peer went down/up.
  using SessionHandler = std::function<void(NodeId self, NodeId peer, bool up)>;

  Transport(sim::Simulator& simulator, Topology& topology)
      : sim_{simulator}, topo_{topology} {}

  /// Receiver-side hook: invoked at delivery time (propagation complete).
  void set_delivery_handler(DeliveryHandler h) { on_deliver_ = std::move(h); }

  /// Invoked synchronously from fail_link/restore_link for both endpoints.
  void set_session_handler(SessionHandler h) { on_session_ = std::move(h); }

  /// Send `payload` from `from` to adjacent `to`. Returns false (drops the
  /// message) if there is no up link between them.
  bool send(NodeId from, NodeId to, Payload payload);

  /// Take the link down: drop in-flight messages on it and notify both
  /// endpoints. No-op (returns false) if already down.
  bool fail_link(LinkId id);

  /// Bring the link back up and notify both endpoints.
  bool restore_link(LinkId id);

  /// Fail every link attached to `n` (the Tdown event helper).
  void fail_node(NodeId n);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_; }
  /// Messages sent and neither delivered nor lost yet: still on the wire.
  [[nodiscard]] std::uint64_t messages_in_flight() const {
    return sent_ - delivered_ - lost_;
  }

  /// Checkpoint the wire counters. Messages physically in flight live in
  /// scheduled delivery closures (which a checkpoint preserves in place,
  /// or which are absent at quiescence), so the counters are the whole
  /// serializable state.
  void save_state(snap::Writer& w) const {
    w.u64(sent_);
    w.u64(delivered_);
    w.u64(lost_);
  }
  void restore_state(snap::Reader& r) {
    sent_ = r.u64();
    delivered_ = r.u64();
    lost_ = r.u64();
  }

 private:
  void deliver(LinkId link, sim::EventId self_id, Envelope env);

  sim::Simulator& sim_;
  Topology& topo_;
  DeliveryHandler on_deliver_;
  SessionHandler on_session_;
  // In-flight events per link so a failure can drop them, indexed by the
  // dense LinkId (grown to the topology's link count on first use).
  std::vector<std::vector<sim::EventId>> in_flight_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace bgpsim::net
