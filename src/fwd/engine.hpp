// Hop-by-hop data-plane forwarding.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "fwd/fib.hpp"
#include "fwd/packet.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::fwd {

/// In-flight hop store backend. kRings (the default) keeps packets in
/// flat per-arrival-tick FIFO rings; kHeap is the (time, seq)
/// binary-heap reference. Pop order,
/// seq assignment, bridge arming, and trial digests are bit-identical
/// either way — the A/B lever behind BGPSIM_DATAPLANE_RINGS.
enum class PlaneBackend : std::uint8_t { kHeap = 0, kRings = 1 };

/// Resolve the backend for a new DataPlane: the process-wide override if
/// set, else the BGPSIM_DATAPLANE_RINGS environment knob (default rings).
[[nodiscard]] PlaneBackend default_plane_backend();

/// Process-wide backend override: 0 = heap, 1 = rings, -1 = clear (fall
/// back to the env knob). Mirrors sim::set_queue_backend_override — the
/// RunOptions engine drives it around a run via core::detail::
/// DataPlaneRingsGuard.
void set_plane_backend_override(int backend);
[[nodiscard]] int plane_backend_override();

/// Construction-time configuration of a DataPlane.
struct DataPlaneOptions {
  /// Dense prefix-indexed destination table: packets for prefix p
  /// terminate at destinations[p]. net::kInvalidNode marks a hole (no
  /// destination registered for that prefix).
  std::vector<net::NodeId> destinations;
  /// Hop-store backend; resolved from the override/env knob when the
  /// options object is built.
  PlaneBackend backend = default_plane_backend();

  /// The study's setting: one prefix (0), one destination.
  [[nodiscard]] static DataPlaneOptions single(net::NodeId destination) {
    DataPlaneOptions o;
    o.destinations.push_back(destination);
    return o;
  }
};

/// One packet origination request — the single inject() entry point.
struct Injection {
  net::NodeId source = net::kInvalidNode;
  net::Prefix prefix = 0;
  int ttl = kDefaultTtl;
};

/// Forwards packets hop by hop against the per-node FIBs.
///
/// Per the study: no nodal delay for data packets (slow packet rate keeps
/// queueing negligible), one TTL decrement per AS hop, 2 ms per link.
///
/// Because a scenario moves millions of packet hops, the engine keeps its
/// own store of in-flight hop events and surfaces only the earliest one
/// to the shared Simulator through its external event slot ("bridge").
/// The slot draws its FIFO tie-break seq from the simulator's counter, so
/// firing order against control-plane events is identical to scheduling a
/// real event. Two interchangeable stores exist (PlaneBackend): the ring
/// store appends each hop to the FIFO ring of its arrival tick (O(1), no
/// percolation) and drains whole tick cohorts in order; the heap store is
/// the per-event reference. Forwarding decisions are served from a
/// (node, prefix) cache stamp-validated against the FIB and topology
/// version counters, so the full FIB/link lookup runs once per routing
/// change instead of once per hop.
///
/// The ring store also delivers loop-trapped packets speculatively
/// (DESIGN.md §5): a cohort whose packets all circle a forwarding cycle
/// under the current state, none of them dying at the next tick, moves to
/// its next tick as one block without touching its packets, and ticks
/// that no control event can interleave with are skipped without a round
/// trip through the simulator (Simulator::credit_external accounts for
/// them). A FIB change on a speculative path, or any topology change,
/// turns the affected packets back into ordinary entries at their exact
/// current hop. Both stores reproduce the same bridge-arming sequence
/// (including the heap's re-arm-at-now while due packets remain), so
/// events_fired, the simulator's seq counter and every digest are
/// bit-identical across backends.
class DataPlane {
 public:
  /// Subscribes to every node's FIB changes; `fibs` must outlive the plane
  /// or stop changing once it is gone.
  DataPlane(sim::Simulator& simulator, const net::Topology& topology,
            std::vector<Fib>& fibs, DataPlaneOptions options);

  // The simulator's external handler and the FIB observers hold `this`.
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Attach the (non-owning) terminal-fate consumer: one on_fates call
  /// per drained tick. Null detaches.
  void set_fate_sink(FateSink* sink) { sink_ = sink; }

  /// Originate a fresh packet; returns its id. The injection's prefix
  /// must have a destination.
  std::uint64_t inject(const Injection& injection);

  [[nodiscard]] PlaneBackend backend() const { return backend_; }

  /// Packets created but not yet terminated.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  struct Counters {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t ttl_exhausted = 0;
    std::uint64_t no_route = 0;
    std::uint64_t link_down = 0;
    std::uint64_t hops = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Hops (already counted in counters().hops) that the ring store
  /// delivered speculatively, moving a whole cohort without touching its
  /// packets. Always 0 under the heap backend; never serialized.
  [[nodiscard]] std::uint64_t speculative_hops() const {
    return speculative_hops_;
  }

  /// Checkpoint the hop store, id/seq counters, packet counters, and the
  /// bridge bookkeeping. Events are written in ascending (at, seq) order,
  /// speculative packets at their exact current hop, so the bytes are
  /// identical under either backend (snapshots are backend-portable both
  /// ways).
  void save_state(snap::Writer& w) const;

  /// Inverse of save_state, replacing the hop-store contents. Valid in
  /// place (the bridge closure, if armed, is still scheduled and
  /// unchanged) or into a fresh plane restored at quiescence (empty
  /// store, bridge unarmed). Restored packets are ordinary entries.
  void restore_state(snap::Reader& r);

 private:
  struct HopEvent {
    sim::SimTime at;
    std::uint64_t seq;  // FIFO tie-break
    net::NodeId node;   // packet is arriving at this node
    bool spec = false;  // loop-bound under the current forwarding state
    Packet packet;
    friend bool operator>(const HopEvent& a, const HopEvent& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// All packets arriving at one exact timestamp, in push (= seq) order.
  /// head marks the next undelivered packet during a drain.
  ///
  /// A cohort whose packets are all speculative may be moved whole
  /// (skip_hop): its items then lag `lag` hops behind the truth — item i
  /// really sits `lag` steps further along its walk, with `lag` less TTL,
  /// `lag` more hops, and seq seq_base + (i - head). settle() applies it.
  struct TickRing {
    sim::SimTime at;
    std::size_t head = 0;
    std::vector<HopEvent> items;
    /// Speculative items admitted (a drain does not count them down: a
    /// part-drained cohort retires at its tick).
    std::uint32_t spec_count = 0;
    std::uint32_t lag = 0;
    std::uint64_t seq_base = 0;
    /// Checked by skippable(): every item speculative, one walk delay.
    bool skips = false;
    sim::SimTime delay;  // that common delay (valid while skips)
    int min_ttl = 0;     // smallest stored item TTL (valid while skips)
  };

  /// The cohorts in ascending time order: a circular buffer of slot ids
  /// into a slab of cohorts. A retired cohort's slot keeps its item
  /// storage for reuse, so opening a tick never allocates, and a skipped
  /// cohort rotates to the back by moving one id (a std::deque of cohorts
  /// frees and allocates a block every few rotations).
  class TickQueue {
   public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    TickRing& operator[](std::size_t i) {
      return slab_[order_[(first_ + i) & mask()]];
    }
    const TickRing& operator[](std::size_t i) const {
      return slab_[order_[(first_ + i) & mask()]];
    }
    TickRing& front() { return (*this)[0]; }
    TickRing& back() { return (*this)[count_ - 1]; }
    /// Open an empty cohort at position i (0..size()), after the i
    /// earlier ones. Invalidates references into the queue.
    TickRing& open(std::size_t i, sim::SimTime at);
    /// Retire the front cohort.
    void pop_front();
    /// Move the front cohort behind the back one.
    void rotate_front() {
      // Full: the front's position already is the one behind the back.
      if (count_ != order_.size()) {
        order_[(first_ + count_) & mask()] = order_[first_];
      }
      first_ = (first_ + 1) & mask();
    }
    /// Move the front cohort to position i, shifting cohorts 1..i forward.
    void sink_front(std::size_t i);
    void clear();

   private:
    [[nodiscard]] std::size_t mask() const { return order_.size() - 1; }
    std::vector<TickRing> slab_;
    std::vector<std::uint32_t> free_;   // slab slots not in the queue
    std::vector<std::uint32_t> order_;  // power-of-two ring of slab slots
    std::size_t first_ = 0;
    std::size_t count_ = 0;
  };

  /// One routing decision for a (node, prefix) pair.
  struct Decision {
    enum class Kind : std::uint8_t { kDeliver, kNoRoute, kLinkDown, kForward };
    Kind kind = Kind::kNoRoute;
    net::NodeId next_hop = net::kInvalidNode;
    sim::SimTime delay;
  };

  /// A memoized Decision, valid while the owning node's FIB version and
  /// the topology's state version both still match. Zero stamps (the
  /// fresh-cache state) can never validate — both counters start at 1.
  struct CachedDecision {
    std::uint64_t fib_stamp = 0;
    std::uint64_t topo_stamp = 0;
    Decision d;
  };

  /// The trajectory a packet at (node, prefix) follows under the current
  /// forwarding state: a path of nodes in walk_nodes_ whose indices
  /// [tail, tail + cycle) repeat forever. cycle == 0 means the walk is not
  /// loop-bound (it ends in a fate, or its links differ in delay). Valid
  /// while the prefix's epoch and the topology version match; a
  /// speculative packet's walk is kept intact until it is settled.
  struct Walk {
    std::uint64_t epoch = 0;
    std::uint64_t topo = 0;
    std::uint32_t path = 0;   // first path node's index in walk_nodes_
    std::uint32_t start = 0;  // this node's position on the path
    std::uint32_t tail = 0;
    std::uint32_t cycle = 0;
    sim::SimTime delay;  // every hop's delay
  };

  void arrive(net::NodeId node, Packet packet, bool spec);
  Decision decide(net::NodeId node, net::Prefix prefix) const;
  const Decision& cached_decide(net::NodeId node, net::Prefix prefix) const;
  void finish(const Packet& p, PacketFate fate, net::NodeId where, bool spec,
              sim::SimTime when);
  void flush_fates();
  void push_hop(sim::SimTime at, net::NodeId node, Packet packet, bool spec);
  void enqueue(HopEvent ev);
  void admit(TickRing& ring, bool spec);
  [[nodiscard]] const sim::SimTime* next_pending_at() const;
  void arm_at(sim::SimTime at);
  void rearm();
  void on_bridge();
  void drain_due();

  // ---- speculative cycle delivery (ring store only) ----
  const Walk& walk_for(net::NodeId node, net::Prefix prefix);
  [[nodiscard]] net::NodeId walk_node(const Walk& w, std::uint32_t steps) const;
  [[nodiscard]] bool walk_touches(const Walk& w, net::NodeId node) const;
  bool speculate(net::NodeId node, net::Prefix prefix);
  void count_spec(net::Prefix prefix, bool added);
  [[nodiscard]] HopEvent settled(const TickRing& ring, std::size_t i) const;
  void settle(TickRing& ring);
  /// Whether the ring's cohort may move to its next tick whole.
  bool skippable(TickRing& ring) {
    return (ring.skips || promote(ring)) &&
           ring.min_ttl - static_cast<int>(ring.lag) >= 2;
  }
  bool promote(TickRing& ring);
  /// Move the front cohort (skippable) to its next tick as one block;
  /// returns its packet count.
  std::size_t skip_hop() {
    TickRing& ring = rings_.front();
    const std::size_t k = ring.items.size();
    counters_.hops += k;
    speculative_hops_ += k;
    ring.seq_base = next_seq_;
    next_seq_ += k;
    ++ring.lag;
    ring.at += ring.delay;
    if (rings_.size() == 1 || ring.at > rings_.back().at) {
      rings_.rotate_front();
    } else {
      relocate_front();
    }
    return k;
  }
  /// skip_hop's rare case: the moved cohort lands before the back one.
  void relocate_front();
  bool retire_dying(sim::SimTime when);
  void skip_ahead();
  void on_fib_change(net::NodeId node, net::Prefix prefix);
  /// Send every packet `touched` selects back to hop by hop.
  template <typename Touched>
  void despeculate_if(const Touched& touched);
  void sync_topology();

  sim::Simulator& sim_;
  const net::Topology& topo_;
  std::vector<Fib>& fibs_;
  std::vector<net::NodeId> destinations_;  // prefix-indexed, dense
  FateSink* sink_ = nullptr;
  std::vector<FateRecord> batch_;  // fates of the current tick

  PlaneBackend backend_;
  std::priority_queue<HopEvent, std::vector<HopEvent>, std::greater<>> heap_;
  TickQueue rings_;
  /// (node × prefix) decision cache, stamp-validated against the FIB and
  /// topology version counters. Shared by both backends, so it cannot
  /// skew the A/B.
  mutable std::vector<CachedDecision> cache_;

  /// (node × prefix) walk memo, built lazily on the first speculation.
  std::vector<Walk> walks_;
  std::vector<net::NodeId> walk_nodes_;  // path arena shared by walks_
  std::vector<std::uint32_t> visit_stamp_, visit_index_;  // walk visit marks
  std::uint32_t visit_epoch_ = 0;
  /// Per-prefix forwarding-state epoch, bumped by every FIB change.
  std::vector<std::uint64_t> prefix_epoch_;
  std::vector<std::uint32_t> spec_per_prefix_;
  std::size_t spec_items_ = 0;
  std::uint64_t spec_topo_ = 0;  // topology version the spec items assume

  std::uint64_t next_seq_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::size_t in_flight_ = 0;
  Counters counters_;
  std::uint64_t speculative_hops_ = 0;

  bool bridge_armed_ = false;
  sim::SimTime bridge_time_;
};

}  // namespace bgpsim::fwd
