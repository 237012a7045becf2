// Pending-event set for the discrete-event engine.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

namespace bgpsim::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Encodes (slot index, per-slot generation); 0 is never a valid handle.
struct EventId {
  std::uint64_t value = 0;
  friend constexpr bool operator==(EventId, EventId) = default;
};

/// Priority queue of (time, callback) pairs.
///
/// Ordering is by time, with insertion order (a monotonically increasing
/// sequence number) breaking ties, so simultaneous events fire FIFO — a
/// property several protocol tests rely on.
///
/// Storage is a slot pool recycled through a free list: a callback lives
/// inline in its slot (sim::Callback small-buffer storage), and the
/// pending set is indexed by lightweight (time, seq, slot) entries in a
/// hierarchical timer wheel (sim/timer_wheel.hpp) whose steady state is
/// O(1) per push/pop. Once the pool has grown to the schedule's
/// high-water mark, push/pop/cancel perform no allocation at all.
/// Cancellation is O(1): the slot is freed immediately and the orphaned
/// index entry is skipped (and reclaimed) when it reaches the front,
/// recognized by its stale seq.
///
/// Determinism: slot assignment (LIFO free list), generations, and seqs
/// are pure functions of the push/cancel/pop history, so identical
/// operation histories produce identical EventIds and identical FIFO
/// tie-breaks.
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Insert `cb` to fire at `when` with a fresh FIFO seq. Returns a handle
  /// for cancel().
  EventId push(SimTime when, Callback cb) {
    return push_drawn(when, next_seq_++, std::move(cb));
  }

  /// Insert `cb` at (`when`, `seq`) for a seq drawn earlier by take_seq
  /// (so < next_seq()): the event fires exactly where a push at the
  /// moment of the draw would have. The simulator promotes silent
  /// deadlines this way.
  EventId push_drawn(SimTime when, std::uint64_t seq, Callback cb);

  /// The handle the next push() will return (pure observation). Lets a
  /// caller bake the id into the scheduled closure itself instead of
  /// routing it through shared heap state.
  [[nodiscard]] EventId next_push_id() const;

  /// Cancel a pending event. Returns false if the event already fired,
  /// was popped, or was cancelled before.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// FIFO tie-break seq of the earliest live event. Requires !empty().
  /// The simulator compares it against its external slot's seq to decide
  /// which fires first at equal times.
  [[nodiscard]] std::uint64_t next_event_seq() const;

  /// Handle of the earliest live event. Requires !empty().
  [[nodiscard]] EventId next_event_id() const;

  /// The earliest live event as one raw (time µs, seq, slot) observation.
  /// Requires !empty(). The run loop uses this to read the firing time and
  /// FIFO tie-break together instead of paying one front lookup per field.
  [[nodiscard]] TimerWheel::Entry front_entry() const;

  /// Consume one sequence number without pushing an event. Used by the
  /// simulator's external event slot and its silent deadlines so that
  /// both order against queued events exactly as a push at the same
  /// moment would.
  std::uint64_t take_seq() { return next_seq_++; }

  /// Consume `n` (>= 1) sequence numbers at once; returns the last.
  std::uint64_t take_seqs(std::uint64_t n) {
    next_seq_ += n;
    return next_seq_ - 1;
  }

  /// Remove and return the earliest live event's callback, along with its
  /// firing time. Requires !empty().
  struct Fired {
    SimTime time;
    Callback callback;
    EventId id;
  };
  Fired pop();

  /// Drop all pending events. Slot storage (and outstanding EventId
  /// generations) are retained so stale handles can never alias a new
  /// event.
  void clear();

  /// Sequence number the next push() will use. Checkpointed so a restored
  /// run assigns the same FIFO tie-breaks as the original.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Restore the push counter (checkpoint restore only; requires empty()).
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// Sorted (time µs, seq) of every live event — the index-invariant
  /// view of the pending set. Snapshots serialize exactly this: slot ids,
  /// generations, and free-list order are allocation artifacts, so they
  /// never enter the byte stream.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  pending_entries() const;

 private:
  static constexpr std::uint32_t kGenBits = 32;

  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;  // seq of current occupant; 0 = slot free
    std::uint32_t gen = 0;  // bumped on every occupancy; EventId disambiguator
  };

  static bool wheel_stale(const void* ctx, const TimerWheel::Entry& e) {
    return static_cast<const EventQueue*>(ctx)->slots_[e.slot].seq != e.seq;
  }

  void release_slot(std::uint32_t slot);

  mutable TimerWheel wheel_;  // front_entry() prunes it lazily
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO recycled slot indices
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  // Memoized front_entry(): valid until a mutation that can move the front
  // (pushing an earlier event, cancelling the front's slot, popping,
  // clearing). Packet-heavy runs observe the front once per fired event,
  // usually unchanged, so this turns the common lookup into one branch.
  mutable TimerWheel::Entry front_cache_{};
  mutable bool front_cached_ = false;
};

}  // namespace bgpsim::sim
