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
  /// sink, it runs inside the plane's drain or replay and must not
  /// schedule events.
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
  /// sources. Restored packets are ordinary entries. The store is decoded
  /// and checked in full before anything changes: an event at an unknown
  /// node, for a prefix without a destination, before now(), out of
  /// ascending (at, seq) order or with a seq not yet drawn; a TTL below
  /// one; an in-flight count other than the event count; or events with
  /// the bridge disarmed end in snap::FormatError.
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
    /// -1 until promote() finds every packet speculative, those that move
    /// on sharing one delay, and again after a packet joins that does not
    /// (join); then the skips left before the first packet dies or
    /// reaches its walk's terminal node: the smallest item reach
    /// (Walk::reach), less the lag. lag + left never exceeds the bound
    /// promote() admits.
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
    /// Retire the front entry and put `entry` behind the back one (its
    /// position when the ring is full).
    void rotate_front(const Hot& entry) {
      ring_[(first_ + count_) & mask()] = entry;
      first_ = (first_ + 1) & mask();
    }
    /// Turn the queue: offer the front entry, with the back one's time,
    /// as a copy that `skip` may update; while it accepts, the updated
    /// entry moves behind the back one. When it declines (or the queue is
    /// empty), call `step` on the queue as it stands, and go on turning
    /// while that returns true.
    template <typename Skip, typename Step>
    void turn(Skip&& skip, Step&& step) {
      do {
        Hot* const ring = ring_.data();
        const std::size_t mask = ring_.size() - 1;
        const std::size_t count = count_;
        std::size_t first = first_;
        if (count != 0) {
          sim::SimTime back = ring[(first + count - 1) & mask].at;
          for (;;) {
            Hot entry = ring[first];
            if (!skip(entry, back)) break;
            back = entry.at;
            // Full: the front's position already is the one behind the
            // back, and the updated entry goes back where it was.
            ring[(first + count) & mask] = entry;
            first = (first + 1) & mask;
          }
          first_ = first;
        }
      } while (step());
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

  void arrive(net::NodeId node, const Packet& packet, bool spec);
  Decision decide(net::NodeId node, net::Prefix prefix) const;
  const Decision& cached_decide(net::NodeId node, net::Prefix prefix) const;
  /// Terminate packet `p`, its TTL and hop count then `ttl` and `hops`.
  void finish(const Packet& p, int ttl, int hops, PacketFate fate,
              net::NodeId where, bool spec, sim::SimTime when);
  void flush_fates();
  /// Store `packet`'s next hop, to `node` at `at`, with `ttl` and `hops`
  /// after it.
  void push_hop(sim::SimTime at, net::NodeId node, const Packet& packet,
                int ttl, int hops, bool spec);
  /// The queued cohort at `at`, opened if there is none.
  std::size_t cohort_at(sim::SimTime at);
  /// Append one hop to queued cohort t (settled first). A speculative
  /// packet keeps a promoted cohort promoted, and promotes an empty one.
  void admit(std::size_t t, std::uint64_t seq, net::NodeId node, bool spec,
             const Packet& packet, int ttl, int hops);
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
  /// Apply a cohort's lag to its items.
  void settle(Hot& hot, TickRing& ring);
  /// Apply `hot`'s lag (non-zero) to `n` items copied out of its cohort.
  void settle_items(const Hot& hot, HopEvent* items, std::size_t n) const;
  void settle(std::size_t t) { settle(rings_.hot(t), rings_[t]); }
  bool promote();
  /// What a promoted cohort's hot fields become when a packet of `prefix`
  /// with `ttl` arriving at `node` joins it (`fresh`: the cohort is
  /// empty): k, delay and skips left exactly as promote() would compute
  /// them, or left = -1 when the packet does not speculate or cannot move
  /// with the others.
  void join(Hot& hot, bool fresh, net::NodeId node, net::Prefix prefix,
            int ttl, bool spec) const;
  /// Move the front cohort — promoted, its `k` packets `left` (>= 1)
  /// skips from their first death or terminal — to its next tick as one
  /// block. The moved entry is written field by field: a whole-entry copy
  /// right after narrow stores to it would stall on store forwarding.
  void move_front(std::uint32_t k, std::int16_t left) {
    const Hot& front = rings_.hot(0);
    Hot moved;
    moved.at = front.at + front.delay();
    moved.seq_base = next_seq_;
    moved.slot = front.slot;
    moved.k = k;
    moved.delay_us = front.delay_us;
    moved.lag = static_cast<std::uint16_t>(front.lag + 1);
    moved.left = static_cast<std::int16_t>(left - 1);
    counters_.hops += k;
    speculative_hops_ += k;
    next_seq_ += k;
    if (rings_.size() == 1 || moved.at > rings_.hot(rings_.size() - 1).at) {
      rings_.rotate_front(moved);
    } else {
      rings_.hot(0) = moved;
      relocate_front();
    }
  }
  /// move_front's other case: the moved cohort lands on or before the
  /// back one.
  void relocate_front();
  /// The front cohort's packets at the end of their skips (left == 0):
  /// retire those that meet their fate at this tick in place, in drain
  /// order, and move the rest, settled and promoted, as one block;
  /// returns whether the tick fires twice.
  bool retire_ending(sim::SimTime when);
  /// Fire the promoted front cohort's tick at `when`: move it whole, or
  /// retire its dying packets and move the rest; returns whether the tick
  /// fires twice.
  bool step_front(sim::SimTime when);
  /// Replay the plane's items inline up to the next control event: the
  /// bridge's firings of promoted cohorts, the re-armed firings that find
  /// nothing due, and the source ticks between them.
  void skip_ahead();
  /// skip_ahead's window: fire the front cohorts due before `bound` (no
  /// source tick comes between them) — in closed form while each moves
  /// whole and lands behind the back one, one step at a time where one
  /// merges or retires packets; returns false when it stops at a cohort
  /// that needs a real drain.
  bool fire_window(sim::SimTime bound);
  /// One replayed firing of the promoted front cohort's tick; a second
  /// firing of the tick is replayed too when `fold`, or else left to the
  /// bridge, re-armed at now. Returns false when the front needs a real
  /// drain.
  bool fire_front(bool fold);
  /// Count one replayed bridge firing at `at`, leaving the bridge armed
  /// at *rearm with a newly drawn seq, or (null) disarmed without a draw.
  void replay_firing(sim::SimTime at, const sim::SimTime* rearm);
  /// Draw the replayed firings' seqs and credit them to the simulator.
  void credit_replay();
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
  /// A replay's firings not yet credited to the simulator, the seqs they
  /// drew (one each, but none where the store empties) and the last
  /// one's time. While they are pending, bridge_seq_ holds the seq its
  /// arming will have drawn.
  std::uint64_t replay_firings_ = 0;
  std::uint64_t replay_draws_ = 0;
  sim::SimTime replay_last_;

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
