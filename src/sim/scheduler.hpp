// The discrete-event simulator core.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (must be >= now()).
  EventId schedule_at(SimTime when, Callback cb);

  /// Schedule `cb` after `delay` from now (delay must be >= 0).
  EventId schedule_after(SimTime delay, Callback cb);

  /// The handle the next schedule_at/schedule_after call will return
  /// (pure observation; see EventQueue::next_push_id). Lets a caller bake
  /// the id into the scheduled closure itself.
  [[nodiscard]] EventId next_schedule_id() const { return queue_.next_push_id(); }

  /// Cancel a pending event; returns false if it already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or the next event lies beyond `limit`.
  /// Events at exactly `limit` do fire. On return every silent deadline
  /// at or before `limit` has passed too, and the clock is at the later of
  /// the last fired event and the last such deadline (it does not jump to
  /// `limit`). Returns the number of events fired, deadlines included.
  std::uint64_t run_until(SimTime limit);

  /// Run until the queue drains. Returns the number of events fired.
  std::uint64_t run() { return run_until(SimTime::infinity()); }

  /// Fire exactly one event if any is pending — a silent deadline counts
  /// as one when it is globally next. Returns true if one fired.
  bool step();

  /// --- silent deadlines ---------------------------------------------
  ///
  /// A component with many timers that usually have nothing to do at
  /// expiry (MRAI) records each one as a bare (time, seq) deadline instead
  /// of a queued closure. Its seq is drawn with take_seq, exactly as
  /// schedule_at would draw it, and the pair goes into a ledger. Passing a
  /// deadline has no effect; the simulator only accounts for it, so
  /// events_fired(), pending(), pending_entries() and the clock after a
  /// run read exactly as if each deadline were a queued no-op event. A
  /// timer that turns out to need its expiry is promoted: its closure is
  /// queued at the original (time, seq), where the no-op would have fired.
  ///
  /// A deadline has passed once it lies at or before the current position:
  /// the (time, seq) of the event firing now, or after a run the clock with
  /// every seq drawn so far. Passed deadlines are credited lazily — by
  /// run_until at its end, by clear_pending, and by the ledger's compaction
  /// each time it doubles, which keeps the ledger to unexpired deadlines.

  /// Record a deadline at (`when` >= now(), `seq`). `seq` must come from
  /// take_seq and be newer than every deadline recorded before it.
  void add_deadline(SimTime when, std::uint64_t seq);

  /// Turn the unpassed deadline (`when`, `seq`) into a queued event that
  /// runs `cb` at exactly that (time, seq). Throws std::logic_error when
  /// no such deadline is outstanding.
  EventId promote_deadline(SimTime when, std::uint64_t seq, Callback cb);

  /// Drop an unpassed deadline without it ever firing. Returns false when
  /// it has passed already or is not in the ledger.
  bool withdraw_deadline(SimTime when, std::uint64_t seq);

  /// True when (`when`, `seq`) lies at or before the current position.
  [[nodiscard]] bool has_passed(SimTime when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && seq <= pos_seq_);
  }

  /// Silent deadlines passed since construction (promoted and withdrawn
  /// ones excluded): the expiries no closure ran for.
  [[nodiscard]] std::uint64_t deadlines_passed() const {
    return deadlines_passed_ + ledger_passed();
  }

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
    pos_seq_ = seq;
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

  /// Number of pending (live) events, counting an armed external slot and
  /// every unpassed deadline.
  [[nodiscard]] std::size_t pending() const;

  /// Total events fired since construction, passed deadlines included.
  [[nodiscard]] std::uint64_t events_fired() const {
    return fired_ + ledger_passed();
  }

  /// Drop all pending events, including an armed external slot and every
  /// unpassed deadline (the clock is not reset). Deadlines already passed
  /// stay counted.
  void clear_pending();

  /// Sequence number the next scheduled event will receive — part of the
  /// deterministic-replay state alongside now() and events_fired().
  [[nodiscard]] std::uint64_t event_seq() const { return queue_.next_seq(); }

  /// Checkpoint restore: set the clock, fired-event count, and event
  /// sequence counter in one step so a restored run continues with
  /// bit-identical timestamps, counts, and FIFO tie-breaks. Does not touch
  /// pending events or unpassed deadlines; the caller is responsible for
  /// restoring at a moment where they match the checkpoint (e.g.
  /// quiescence). Passed deadlines leave the ledger first: `fired` already
  /// counts them.
  void restore_clock(SimTime now, std::uint64_t fired, std::uint64_t seq);

  /// Sorted (time µs, seq) of every live queued event and unpassed
  /// deadline — the index-invariant pending set snapshots serialize and
  /// verify. The external slot is excluded: it is component-owned state,
  /// re-armed by its owner on restore.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  pending_entries() const;

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

  /// One ledger entry; a withdrawn or promoted deadline keeps its seq (the
  /// ledger stays sorted by seq) and has time_us < 0.
  struct Deadline {
    std::int64_t time_us;
    std::uint64_t seq;
  };

  [[nodiscard]] bool has_passed(const Deadline& d) const {
    return has_passed(SimTime::micros(d.time_us), d.seq);
  }

  /// Live ledger entries that have passed but are not yet credited.
  [[nodiscard]] std::uint64_t ledger_passed() const;

  /// The live ledger entry for (`when`, `seq`), or nullptr.
  [[nodiscard]] Deadline* find_deadline(SimTime when, std::uint64_t seq);

  /// Remove withdrawn entries and every live entry `gone` selects, adding
  /// the latter to deadlines_passed_. Returns how many it selected and the
  /// latest time among them (-1 when none).
  template <typename Gone>
  std::pair<std::uint64_t, std::int64_t> sweep_ledger(Gone gone);

  /// Sweep out the passed deadlines, crediting them as fired.
  void credit_passed();

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  /// FIFO seq of the current position (see has_passed).
  std::uint64_t pos_seq_ = 0;
  /// Events fired plus deadlines credited; events_fired() adds the passed
  /// deadlines still in the ledger.
  std::uint64_t fired_ = 0;
  /// Silent deadlines in seq order (see add_deadline).
  std::vector<Deadline> ledger_;
  /// Ledger size that triggers the next compaction: twice what the last
  /// one kept, at least kMinCompactAt.
  static constexpr std::size_t kMinCompactAt = 1024;
  std::size_t compact_at_ = kMinCompactAt;
  std::uint64_t deadlines_passed_ = 0;  // swept out of the ledger so far
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
