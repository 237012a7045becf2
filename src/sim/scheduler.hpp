// The discrete-event simulator core.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace bgpsim::sim {

/// Discrete-event simulator: a virtual clock plus an event queue.
///
/// Components schedule callbacks at absolute times or after delays; run()
/// drains the queue in time order, advancing the clock to each event's
/// firing time. The engine is strictly single-threaded and deterministic:
/// identical schedules produce identical executions.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// The queue backend defaults to the process-wide resolution
  /// (BGPSIM_TIMER_WHEEL / set_queue_backend_override); tests pin one
  /// explicitly for differential runs.
  explicit Simulator(QueueBackend backend = default_queue_backend())
      : queue_{backend} {}

  [[nodiscard]] QueueBackend backend() const { return queue_.backend(); }

  /// True when components should gather coincident timer expiries into one
  /// batched delivery (see next_coincident_event). Tied to the wheel
  /// backend so BGPSIM_TIMER_WHEEL=0 reproduces the strictly sequential
  /// reference execution.
  [[nodiscard]] bool burst_delivery() const {
    return queue_.backend() == QueueBackend::kWheel;
  }

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (must be >= now()). `tag` is an
  /// owner-defined word the burst path reads back (next_event_tag).
  EventId schedule_at(SimTime when, Callback cb, std::uint64_t tag = 0);

  /// Schedule `cb` after `delay` from now (delay must be >= 0).
  EventId schedule_after(SimTime delay, Callback cb, std::uint64_t tag = 0);

  /// The handle the next schedule_at/schedule_after call will return
  /// (pure observation; see EventQueue::next_push_id). Lets a caller bake
  /// the id into the scheduled closure itself.
  [[nodiscard]] EventId next_schedule_id() const { return queue_.next_push_id(); }

  /// Cancel a pending event; returns false if it already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or the next event lies beyond `limit`.
  /// Events at exactly `limit` do fire. The clock stays at the last fired
  /// event's time (it does not jump to `limit`). Returns the number of
  /// events fired.
  std::uint64_t run_until(SimTime limit);

  /// Run until the queue drains. Returns the number of events fired.
  std::uint64_t run() { return run_until(SimTime::infinity()); }

  /// Fire exactly one event if any is pending. Returns true if one fired.
  bool step();

  /// --- batched same-timestamp delivery ------------------------------
  ///
  /// A component whose handler is currently running (i.e. now() is the
  /// firing time) may consume further events due at this exact instant
  /// without a round trip through the run loop, provided it can re-derive
  /// the work from its own bookkeeping. The contract preserves the
  /// sequential execution order exactly: only the globally next event is
  /// ever offered, so a foreign event (another component's closure, or
  /// the external slot) interleaved between two of the component's timers
  /// stops the batch right there.

  /// Handle of the next pending event iff it is due exactly at now() and
  /// precedes an armed external slot; nullopt otherwise. The caller
  /// checks the handle against its own bookkeeping before consuming.
  [[nodiscard]] std::optional<EventId> next_coincident_event() const;

  /// Tag of the event next_coincident_event() just returned, so its owner
  /// can find its bookkeeping for it without a search. Tags are not unique
  /// across owners: the caller must still match the id.
  [[nodiscard]] std::uint64_t next_event_tag() const {
    return queue_.next_event_tag();
  }

  /// Consume the event next_coincident_event() just returned: it counts
  /// as fired (the clock is already at its time) but its closure is
  /// discarded unrun. `id` must still be the front of the queue.
  void consume_coincident(EventId id);

  /// --- external event slot ------------------------------------------
  ///
  /// A component that manages many internal timed items behind one
  /// deadline — the data plane keeps its own stores of packet hops and
  /// traffic-source ticks — registers a handler once and arms the slot for
  /// its earliest internal item. Every item carries a FIFO tie-break seq
  /// drawn from the same counter as schedule_at (take_seq), so the slot
  /// fires in exactly the order a freshly pushed event would — but arming
  /// and re-arming are a few stores, with no queue traffic and no
  /// allocation. One slot per simulator; the run loop merges it with the
  /// queue.
  ///
  /// While the handler runs it may fire the slot again inline
  /// (fire_external_inline) for every item the run loop would have fired
  /// next anyway, so a stream of data-plane items between two control
  /// events costs one run-loop return. The handler must not schedule
  /// events: schedule_at/schedule_after throw std::logic_error while it
  /// runs, since an event pushed mid-drain could precede items the owner
  /// already fired inline.

  /// Register the external handler (must be set before arm_external; may
  /// only be installed once — the slot has a single owner).
  void set_external_handler(Callback handler);

  /// Draw the next FIFO tie-break seq, exactly as a schedule_at at this
  /// moment would. The slot's owner stamps its internal items with these.
  std::uint64_t take_seq() { return queue_.take_seq(); }

  /// Draw `n` (>= 1) seqs at once — exactly n take_seq calls in a row —
  /// and return the last. A bulk replay (credit_external) draws the seqs
  /// of all its firings with it.
  std::uint64_t take_seqs(std::uint64_t n) { return queue_.take_seqs(n); }

  /// Arm the slot at absolute time `when` (>= now()) with tie-break `seq`,
  /// a seq drawn earlier by take_seq (so < event_seq()), replacing any
  /// previous arming. Draws nothing.
  void arm_external(SimTime when, std::uint64_t seq);

  /// Arm the slot at `when` with a freshly drawn seq — the ordering a
  /// cancel-and-reschedule through the queue would produce.
  void arm_external(SimTime when) { arm_external(when, take_seq()); }

  /// Disarm without firing. No-op if not armed.
  void disarm_external() { ext_armed_ = false; }

  /// From inside the external handler: fire the slot once more, for an
  /// item at (`when`, `seq`), iff the run loop would fire exactly that
  /// next — it precedes the queue front by (time, seq) and lies within the
  /// current run_until limit; under step() never. On true it counts as
  /// fired and now() becomes `when`; on false nothing changes and the
  /// owner re-arms the slot for the item. The bound is fixed when the
  /// handler starts, which is sound because the handler cannot schedule.
  bool fire_external_inline(SimTime when, std::uint64_t seq) {
    if (!(when < inline_time_ || (when == inline_time_ && seq < inline_seq_))) {
      return false;
    }
    now_ = when;
    ++fired_;
    return true;
  }

  /// From inside the external handler: exclusive time bound on items
  /// whose seq the handler drew itself — the next queued event's time, or
  /// just past the run_until limit; under step() nothing passes (the
  /// bound is the clock before the step). Such a seq is newer than the
  /// queued event's, so an item at exactly that time would come after it
  /// — hence the strict bound.
  [[nodiscard]] SimTime external_horizon() const { return inline_time_; }

  /// Account for `firings` inline firings of the external slot in one
  /// call, all before external_horizon(), the last at `last` (>= now()),
  /// which becomes now(). Their seqs the owner drew with take_seq.
  /// Throws std::invalid_argument for firings outside the horizon.
  void credit_external(std::uint64_t firings, SimTime last);

  [[nodiscard]] bool external_armed() const { return ext_armed_; }

  /// True while the external handler runs (its owner defers re-arming
  /// the slot to the handler's end).
  [[nodiscard]] bool in_external_handler() const { return in_external_; }

  /// Number of pending (live) events, counting an armed external slot.
  [[nodiscard]] std::size_t pending() const {
    return queue_.size() + (ext_armed_ ? 1 : 0);
  }

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Drop all pending events, including an armed external slot (the
  /// clock is not reset).
  void clear_pending() {
    queue_.clear();
    ext_armed_ = false;
  }

  /// Sequence number the next scheduled event will receive — part of the
  /// deterministic-replay state alongside now() and events_fired().
  [[nodiscard]] std::uint64_t event_seq() const { return queue_.next_seq(); }

  /// Checkpoint restore: set the clock, fired-event count, and event
  /// sequence counter in one step so a restored run continues with
  /// bit-identical timestamps, counts, and FIFO tie-breaks. Does not touch
  /// pending events; the caller is responsible for restoring at a moment
  /// where the queue contents match the checkpoint (e.g. quiescence).
  void restore_clock(SimTime now, std::uint64_t fired, std::uint64_t seq) {
    now_ = now;
    fired_ = fired;
    queue_.set_next_seq(seq);
  }

  /// Sorted (time µs, seq) of every live queued event — the
  /// backend-invariant pending set snapshots serialize and verify. The
  /// external slot is excluded: it is component-owned state, re-armed by
  /// its owner on restore.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  pending_entries() const {
    return queue_.pending_entries();
  }

 private:
  /// True when the external slot fires before the queue's earliest event
  /// — earlier time, or equal time with the earlier seq. Requires the
  /// slot armed and the queue non-empty.
  [[nodiscard]] bool external_first() const {
    const SimTime qt = queue_.next_time();
    if (ext_time_ != qt) return ext_time_ < qt;
    return ext_seq_ < queue_.next_event_seq();
  }

  /// Fire the armed slot; `bound_time`/`bound_seq` limit what its handler
  /// may fire inline (see fire_external_inline).
  void fire_external(SimTime bound_time, std::uint64_t bound_seq);

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t fired_ = 0;
  Callback ext_handler_;
  SimTime ext_time_ = SimTime::zero();
  std::uint64_t ext_seq_ = 0;
  bool ext_armed_ = false;
  /// True while the external handler runs (scheduling is refused).
  bool in_external_ = false;
  /// Exclusive (time, seq) bound on inline firings of the running
  /// external handler: the queue front, or just past the run limit.
  SimTime inline_time_ = SimTime::zero();
  std::uint64_t inline_seq_ = 0;
};

}  // namespace bgpsim::sim
