// Hop-by-hop data-plane forwarding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "fwd/fib.hpp"
#include "fwd/packet.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::fwd {

/// In-flight hop store backend. kRings (the default) keeps packets in
/// flat per-arrival-tick FIFO rings; kHeap is the (time, seq)
/// binary-heap hop-by-hop reference that differential tests and
/// `fuzz_scenarios --dataplane-check` compare against. Pop order, seq
/// assignment, bridge arming, and trial digests are bit-identical either
/// way.
enum class PlaneBackend : std::uint8_t { kHeap = 0, kRings = 1 };

/// Backend a DataPlaneOptions defaults to: kRings, unless a
/// ScopedPlaneBackend is pinning another one process-wide.
[[nodiscard]] PlaneBackend default_plane_backend();

/// RAII: pin the backend every DataPlaneOptions built while it lives
/// defaults to — whole runs included, and fork()ed campaign workers with
/// them — restoring the previous pin on exit.
class ScopedPlaneBackend {
 public:
  explicit ScopedPlaneBackend(PlaneBackend backend);
  ~ScopedPlaneBackend();
  ScopedPlaneBackend(const ScopedPlaneBackend&) = delete;
  ScopedPlaneBackend& operator=(const ScopedPlaneBackend&) = delete;

 private:
  int prev_;
};

/// Construction-time configuration of a DataPlane.
struct DataPlaneOptions {
  /// Dense prefix-indexed destination table: packets for prefix p
  /// terminate at destinations[p]. net::kInvalidNode marks a hole (no
  /// destination registered for that prefix).
  std::vector<net::NodeId> destinations;
  /// Hop-store backend; resolved from default_plane_backend() when the
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
/// (node, prefix) cache that the FIB observer invalidates entry by entry
/// and that is stamped with the topology version, so the full FIB/link
/// lookup runs once per routing change instead of once per hop.
///
/// The ring store also delivers packets speculatively (DESIGN.md §5): a
/// cohort whose packets all follow known walks under the current state —
/// circling a forwarding cycle, or heading for a delivery or a drop —
/// none of them meeting its fate at the next tick, moves to its next tick
/// as one block without touching its packets, and a cohort whose packets
/// meet their fates at this tick retires them without a hop-by-hop
/// drain. A FIB change on a speculative path, or any topology change,
/// turns the affected packets back into ordinary entries at their exact
/// current hop. Both stores reproduce the same bridge-arming sequence
/// (including the heap's re-arm-at-now while due packets remain), so
/// events_fired, the simulator's seq counter and every digest are
/// bit-identical across backends.
///
/// The constant-rate traffic sources live here too (DESIGN.md §5 "One
/// data-plane event stream"): one ring of (next tick, seq) entries in
/// firing order, served through the same external slot as the hop store.
/// The slot is armed for the earlier of the two by (time, seq), and its
/// handler fires ticks, hops and skipped cohorts inline, one after
/// another, until the next control event — each one credited to the
/// simulator exactly as if it had gone through the run loop.
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

  // ---- constant-rate sources (driven through fwd::TrafficGenerator) ----

  /// Reports every source tick's injection (time-stamped packet-sent
  /// record), just before the packet enters the plane. Like the fate
  /// sink, it runs inside the plane's drain and must not schedule events.
  using SendHook = std::function<void(net::NodeId source, net::Prefix prefix,
                                      sim::SimTime when)>;
  void set_send_hook(SendHook hook) { on_send_ = std::move(hook); }

  /// What every source does per tick: send one packet of `ttl` every
  /// `interval`, round-robin over prefixes 0..prefix_count-1 starting at
  /// source % prefix_count.
  struct SourcePlan {
    sim::SimTime interval;
    int ttl = kDefaultTtl;
    std::size_t prefix_count = 1;
  };
  /// A source's first tick.
  struct SourceStart {
    sim::SimTime at;
    net::NodeId node = net::kInvalidNode;
  };

  /// Start one source per entry of `starts` (each first tick >= now()).
  /// Each source draws its tie-break seq in the given order, as if it had
  /// been scheduled. Throws std::logic_error while an earlier start's
  /// sources still have ticks pending.
  void start_sources(const SourcePlan& plan,
                     const std::vector<SourceStart>& starts);

  /// Stop sending. Every source's pending tick still fires once, as a
  /// counted no-op, and then the source is gone.
  void stop_sources();

  [[nodiscard]] bool sources_running() const {
    return src_phase_ == SourcePhase::kRunning;
  }
  [[nodiscard]] std::uint64_t packets_sent() const { return src_sent_; }

  /// Checkpoint the sources: phase, send count, prefix cursors (only when
  /// plan.prefix_count > 1) and — once traffic has started, never before,
  /// so quiescent bytes carry no ring — the pending ticks in firing order.
  void save_sources(snap::Writer& w, const SourcePlan& plan) const;

  /// Inverse of save_sources, replacing the source state. The ring is
  /// decoded and checked in full before anything changes: an unknown
  /// phase, an unsorted or duplicate source, ticks spanning more than one
  /// interval, a tick before now(), a seq the simulator has not drawn,
  /// more entries than nodes, or a node without a prefix cursor ends in
  /// snap::FormatError.
  void restore_sources(snap::Reader& r, const SourcePlan& plan);

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
  /// bridge bookkeeping (its tie-break seq only while armed, so quiescent
  /// bytes are unchanged). Events are written in ascending (at, seq)
  /// order, speculative packets at their exact current hop, so the bytes
  /// are identical under either backend (snapshots are backend-portable
  /// both ways). The sources are checkpointed separately (save_sources).
  void save_state(snap::Writer& w) const;

  /// Inverse of save_state, replacing the hop-store contents, and re-arm
  /// the simulator's slot from the restored bridge and the current
  /// sources. Restored packets are ordinary entries.
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
  /// head marks the next undelivered packet during a drain. The cohort's
  /// time and replay state live in its Hot entry in the queue.
  struct TickRing {
    std::size_t head = 0;
    std::vector<HopEvent> items;
    /// Speculative items admitted (a drain does not count them down: a
    /// part-drained cohort retires at its tick).
    std::uint32_t spec_count = 0;
  };

  /// A cohort's hot fields, kept in the queue's time-ordered ring itself,
  /// so a window of skips (fire_window) reads and writes one small record
  /// per cohort and never its packets.
  ///
  /// A cohort whose packets are all speculative may be moved whole: its
  /// items then lag `lag` hops behind the truth — item i really sits `lag`
  /// steps further along its walk, with `lag` less TTL, `lag` more hops,
  /// and seq seq_base + (i - head). settle() applies it.
  struct Hot {
    sim::SimTime at;
    std::uint64_t seq_base = 0;
    std::uint32_t slot = 0;  // the cohort's TickRing in the queue's slab
    std::uint32_t k = 0;         // its packets (valid while left >= 0)
    std::uint32_t delay_us = 0;  // their walks' delay (valid while left >= 0)
    std::uint16_t lag = 0;
    /// -1 until skippable() finds every packet speculative, those that
    /// move on sharing one delay, and again after any admission; then the
    /// skips left before the first packet dies or reaches its walk's
    /// terminal node: the smallest item reach (Walk::reach), less the lag.
    /// lag + left never exceeds the bound promote() admits.
    std::int16_t left = -1;

    [[nodiscard]] sim::SimTime delay() const {
      return sim::SimTime::micros(delay_us);
    }
    /// Move the cohort to its next tick whole, its packets drawing seqs
    /// from `seq` on (requires left >= 1).
    void skip(std::uint64_t seq) {
      seq_base = seq;
      ++lag;
      --left;
      at += delay();
    }
  };
  static_assert(sizeof(Hot) == 32, "two queue entries per cache line");

  /// The cohorts in ascending time order: a circular buffer of Hot entries
  /// pointing into a slab of cohorts. A retired cohort's slot keeps its
  /// item storage for reuse, so opening a tick never allocates, and a
  /// skipped cohort rotates to the back by moving its entry (a std::deque
  /// of cohorts frees and allocates a block every few rotations).
  class TickQueue {
   public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    Hot& hot(std::size_t i) { return ring_[(first_ + i) & mask()]; }
    const Hot& hot(std::size_t i) const { return ring_[(first_ + i) & mask()]; }
    TickRing& operator[](std::size_t i) { return slab_[hot(i).slot]; }
    const TickRing& operator[](std::size_t i) const {
      return slab_[hot(i).slot];
    }
    /// Open an empty cohort at position i (0..size()), after the i
    /// earlier ones. Invalidates references into the queue.
    void open(std::size_t i, sim::SimTime at);
    /// Retire the front cohort.
    void pop_front();
    /// Move the front cohort behind the back one.
    void rotate_front() {
      // Full: the front's position already is the one behind the back.
      if (count_ != ring_.size()) {
        ring_[(first_ + count_) & mask()] = ring_[first_];
      }
      first_ = (first_ + 1) & mask();
    }
    /// Offer the front entries in order, at most one lap, each as a copy
    /// that `step` may update, until it declines one; the accepted ones,
    /// updated, move behind the back one in order (rotate). Returns their
    /// count.
    template <typename Step>
    std::size_t turn(Step&& step) {
      Hot* const ring = ring_.data();
      const std::size_t mask = ring_.size() - 1;
      const std::size_t first = first_;
      const std::size_t count = count_;
      // Full: the fronts' positions already are the ones behind the back.
      // Otherwise each entry lands on a free position or on one this pass
      // has read already.
      const std::size_t shift = count == ring_.size() ? 0 : count;
      std::size_t j = 0;
      for (; j < count; ++j) {
        Hot entry = ring[(first + j) & mask];
        if (!step(entry)) break;
        ring[(first + shift + j) & mask] = entry;
      }
      first_ = (first + j) & mask;
      return j;
    }
    /// Move the front cohort to position i, shifting cohorts 1..i forward.
    void sink_front(std::size_t i);
    void clear();

   private:
    [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }
    std::vector<TickRing> slab_;
    std::vector<std::uint32_t> free_;  // slab slots not in the queue
    std::vector<Hot> ring_;            // power-of-two ring of queued cohorts
    std::size_t first_ = 0;
    std::size_t count_ = 0;
  };

  /// One routing decision for a (node, prefix) pair.
  struct Decision {
    enum class Kind : std::uint8_t { kDeliver, kNoRoute, kLinkDown, kForward };
    Kind kind = Kind::kNoRoute;
    net::NodeId next_hop = net::kInvalidNode;
    sim::SimTime delay;

    /// The fate of a packet arriving where this decision does not forward.
    [[nodiscard]] PacketFate fate() const {
      switch (kind) {
        case Kind::kDeliver:
          return PacketFate::kDelivered;
        case Kind::kLinkDown:
          return PacketFate::kLinkDown;
        default:
          return PacketFate::kNoRoute;
      }
    }
  };

  /// A memoized Decision, valid while the topology's state version still
  /// matches its stamp. A FIB change of its (node, prefix) zeroes the
  /// stamp; zero (also the fresh-cache state) never validates, since the
  /// topology's counter starts at 1.
  struct CachedDecision {
    std::uint64_t topo_stamp = 0;
    Decision d;
  };

  /// The trajectory a packet at (node, prefix) follows under the current
  /// forwarding state: a path of nodes in walk_nodes_, in one of three
  /// forms. Loop-bound (cycle != 0): indices [tail, tail + cycle) repeat
  /// forever. Ending (cycle == 0, tail != 0): the path stops at its
  /// terminal node, index tail - 1, whose own decision (deliver, no route,
  /// link down) is the packet's fate. Neither (cycle == tail == 0): the
  /// walk meets a link of another delay and does not speculate. Valid
  /// while the prefix's epoch and the topology version match; a
  /// speculative packet's walk is kept intact until it is settled.
  struct Walk {
    std::uint64_t epoch = 0;
    std::uint64_t topo = 0;
    std::uint32_t path = 0;   // first path node's index in walk_nodes_
    std::uint32_t start = 0;  // this node's position on the path
    std::uint32_t tail = 0;
    std::uint32_t cycle = 0;
    /// ⌊(2^64 − 1) / cycle⌋ + 1: walk_node reduces modulo the cycle with
    /// two multiplications instead of a division.
    std::uint64_t cycle_magic = 0;
    sim::SimTime delay;  // every hop's delay

    /// Hops a packet of `ttl` starting here takes whole (loop-bound or
    /// ending walks): until its TTL runs out or it reaches the terminal.
    [[nodiscard]] int reach(int ttl) const {
      if (cycle != 0) return ttl - 1;
      return std::min(ttl - 1, static_cast<int>(tail - 1 - start));
    }
  };

  void arrive(net::NodeId node, Packet packet, bool spec);
  Decision decide(net::NodeId node, net::Prefix prefix) const;
  const Decision& cached_decide(net::NodeId node, net::Prefix prefix) const;
  void finish(const Packet& p, PacketFate fate, net::NodeId where, bool spec,
              sim::SimTime when);
  void flush_fates();
  void push_hop(sim::SimTime at, net::NodeId node, Packet packet, bool spec);
  void enqueue(HopEvent ev);
  /// Prepare queued cohort t for one more packet; returns its ring.
  TickRing& admit(std::size_t t, bool spec);
  [[nodiscard]] const sim::SimTime* next_pending_at() const;
  void arm_at(sim::SimTime at);
  void rearm();
  void drain_due();

  // ---- the one data-plane event stream ----
  /// The simulator's external handler: fires the plane's items in
  /// (time, seq) order for as long as each is the simulator's next event.
  void on_slot();
  /// Whether the bridge's firing is the plane's next item (otherwise the
  /// source ring's front is, if any source is pending).
  [[nodiscard]] bool bridge_next() const {
    if (!bridge_armed_) return false;
    if (src_live_ == 0) return true;
    const SourceTick& s = src_[src_head_];
    return bridge_time_ < s.at || (bridge_time_ == s.at && bridge_seq_ < s.seq);
  }
  void fire_bridge();
  void fire_source();
  /// Arm the simulator's slot for the plane's next item, or disarm it.
  void sync_slot();

  // ---- speculative delivery (ring store only) ----
  /// Build the walk of (node, prefix), memoising it for every node on it.
  const Walk& walk_for(net::NodeId node, net::Prefix prefix);
  [[nodiscard]] net::NodeId walk_node(const Walk& w, std::uint32_t steps) const;
  [[nodiscard]] bool walk_touches(const Walk& w, net::NodeId node) const;
  /// Whether a packet of `prefix` arriving at `node` speculates (and, if
  /// so, counts it).
  bool speculate(net::NodeId node, net::Prefix prefix);
  /// Send every speculative packet back to hop by hop and empty the walk
  /// arena (once it has passed its bound).
  void reclaim_walks();
  void count_spec(net::Prefix prefix, bool added);
  [[nodiscard]] HopEvent settled(const Hot& hot, const TickRing& ring,
                                 std::size_t i) const;
  /// Apply queued cohort t's lag to its items.
  void settle(std::size_t t);
  /// Whether the front cohort may move to its next tick whole.
  bool skippable() {
    const Hot& front = rings_.hot(0);
    return (front.left >= 0 || promote()) && front.left >= 1;
  }
  bool promote();
  /// Move the front cohort (skippable) to its next tick as one block;
  /// returns its packet count.
  std::size_t skip_hop() {
    Hot& front = rings_.hot(0);
    const std::size_t k = front.k;
    counters_.hops += k;
    speculative_hops_ += k;
    front.skip(next_seq_);
    next_seq_ += k;
    if (rings_.size() == 1 || front.at > rings_.hot(rings_.size() - 1).at) {
      rings_.rotate_front();
    } else {
      relocate_front();
    }
    return k;
  }
  /// skip_hop's rare case: the moved cohort lands before the back one.
  void relocate_front();
  /// The front cohort's packets at the end of their skips (left == 0):
  /// retire those that meet their fate at this tick in place, in drain
  /// order, and move the rest as one block; returns whether the tick
  /// fires twice.
  bool retire_ending(sim::SimTime when);
  /// When the bridge fires next: replay its cohort skips up to the next
  /// source tick or control event, credited in one call.
  void skip_ahead();
  /// skip_ahead's closed-form window: skip the front cohorts due before
  /// `horizon` that move whole and land behind the back one, at most one
  /// lap; returns how many bridge firings that stands for (none if the
  /// front does not qualify) and sets `last` to the last one's time.
  std::uint64_t fire_window(sim::SimTime horizon, sim::SimTime& last);
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
  /// (node × prefix) decision cache, invalidated by the FIB observer and
  /// stamped with the topology version. Shared by both backends.
  mutable std::vector<CachedDecision> cache_;

  /// (node × prefix) walk memo, built lazily on the first speculation.
  std::vector<Walk> walks_;
  std::vector<net::NodeId> walk_nodes_;  // path arena shared by walks_
  std::vector<std::uint32_t> visit_stamp_, visit_index_;  // walk visit marks
  std::uint32_t visit_epoch_ = 0;
  /// Per-prefix forwarding-state epoch, bumped by every FIB change, and
  /// the time of its last bump (the churn gate of speculate()).
  std::vector<std::uint64_t> prefix_epoch_;
  std::vector<sim::SimTime> prefix_changed_at_;
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
  std::uint64_t bridge_seq_ = 0;  // tie-break drawn at the last arming

  // ---- constant-rate sources ----
  /// One source's next tick. Sources with one common interval never
  /// reorder — a fired tick's successor is later by (time, seq) than
  /// every pending tick — so the ring keeps firing order by rotation.
  struct SourceTick {
    sim::SimTime at;
    std::uint64_t seq = 0;
    net::NodeId node = net::kInvalidNode;
  };
  /// kIdle until the first start (quiescent checkpoints carry no ring).
  enum class SourcePhase : std::uint8_t { kIdle = 0, kRunning = 1, kStopped = 2 };
  SourcePhase src_phase_ = SourcePhase::kIdle;
  SourcePlan src_plan_;
  /// Pending ticks in firing order: src_[src_head_] first, src_live_ of
  /// them, wrapping around the vector.
  std::vector<SourceTick> src_;
  std::size_t src_head_ = 0;
  std::size_t src_live_ = 0;
  std::uint64_t src_sent_ = 0;
  /// Per-source round-robin prefix position (multi-prefix plans only;
  /// indexed by source node).
  std::vector<std::uint64_t> src_cursor_;
  SendHook on_send_;
};

}  // namespace bgpsim::fwd
