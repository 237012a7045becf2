#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace bgpsim::sim {

EventId EventQueue::next_push_id() const {
  const std::uint32_t slot = free_.empty()
                                 ? static_cast<std::uint32_t>(slots_.size())
                                 : free_.back();
  const std::uint32_t gen = slot < slots_.size() ? slots_[slot].gen + 1 : 1;
  return EventId{(static_cast<std::uint64_t>(slot) << kGenBits) | gen};
}

EventId EventQueue::push_drawn(SimTime when, std::uint64_t seq, Callback cb) {
  assert(seq != 0 && seq < next_seq_);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  // A push moves the front only if it lands before the cached entry by
  // (time, seq): a pre-drawn seq can be older than the front's at the
  // same microsecond.
  if (front_cached_ &&
      (when.as_micros() < front_cache_.time_us ||
       (when.as_micros() == front_cache_.time_us && seq < front_cache_.seq))) {
    front_cached_ = false;
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = seq;
  ++s.gen;
  wheel_.insert(TimerWheel::Entry{when.as_micros(), seq, slot});
  ++live_;
  return EventId{(static_cast<std::uint64_t>(slot) << kGenBits) | s.gen};
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = Callback{};
  s.seq = 0;
  free_.push_back(slot);
  assert(live_ > 0);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value >> kGenBits);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.seq == 0 || s.gen != gen) return false;
  // The wheel entry is left in place; the wheel recognizes it as stale
  // by its dead seq and drops it when it reaches the front. Cancelling
  // any slot other than the cached front leaves the front untouched.
  if (front_cached_ && front_cache_.slot == slot) front_cached_ = false;
  release_slot(slot);
  return true;
}

TimerWheel::Entry EventQueue::front_entry() const {
  if (front_cached_) return front_cache_;
  // The wheel prunes stale entries lazily, so surfacing the front mutates
  // index bookkeeping (never live state).
  const TimerWheel::Entry* e = wheel_.peek(wheel_stale, this);
  if (e == nullptr) {
    throw std::logic_error{"EventQueue: front_entry on empty queue"};
  }
  front_cache_ = *e;
  front_cached_ = true;
  return front_cache_;
}

SimTime EventQueue::next_time() const {
  return SimTime::micros(front_entry().time_us);
}

std::uint64_t EventQueue::next_event_seq() const { return front_entry().seq; }

EventId EventQueue::next_event_id() const {
  const TimerWheel::Entry top = front_entry();
  return EventId{(static_cast<std::uint64_t>(top.slot) << kGenBits) |
                 slots_[top.slot].gen};
}

EventQueue::Fired EventQueue::pop() {
  const TimerWheel::Entry top = front_entry();
  front_cached_ = false;
  wheel_.pop_front();
  Slot& s = slots_[top.slot];
  assert(s.seq == top.seq);
  Fired fired{SimTime::micros(top.time_us), std::move(s.cb),
              EventId{(static_cast<std::uint64_t>(top.slot) << kGenBits) | s.gen}};
  release_slot(top.slot);
  return fired;
}

void EventQueue::clear() {
  // Free every live slot but keep the pool (and its generations): a stale
  // EventId from before clear() must keep failing to cancel, even if its
  // slot is recycled afterwards.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].seq != 0) release_slot(slot);
  }
  wheel_.clear();
  front_cached_ = false;
  assert(live_ == 0);
}

std::vector<std::pair<std::int64_t, std::uint64_t>>
EventQueue::pending_entries() const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  out.reserve(live_);
  std::vector<TimerWheel::Entry> entries;
  entries.reserve(live_);
  wheel_.collect(wheel_stale, this, entries);
  for (const TimerWheel::Entry& e : entries) out.emplace_back(e.time_us, e.seq);
  std::sort(out.begin(), out.end());
  assert(out.size() == live_);
  return out;
}

}  // namespace bgpsim::sim
