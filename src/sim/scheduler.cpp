#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bgpsim::sim {

EventId Simulator::schedule_at(SimTime when, Callback cb, std::uint64_t tag) {
  if (when < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  }
  return queue_.push(when, std::move(cb), tag);
}

EventId Simulator::schedule_after(SimTime delay, Callback cb,
                                  std::uint64_t tag) {
  if (delay < SimTime::zero()) {
    throw std::invalid_argument{"Simulator::schedule_after: negative delay"};
  }
  return queue_.push(now_ + delay, std::move(cb), tag);
}

void Simulator::set_external_handler(Callback handler) {
  if (ext_handler_) {
    throw std::logic_error{
        "Simulator::set_external_handler: slot already owned"};
  }
  ext_handler_ = std::move(handler);
}

void Simulator::arm_external(SimTime when) {
  if (!ext_handler_) {
    throw std::logic_error{"Simulator::arm_external: no handler installed"};
  }
  if (when < now_) {
    throw std::invalid_argument{"Simulator::arm_external: time in the past"};
  }
  ext_time_ = when;
  ext_seq_ = queue_.take_seq();
  ext_armed_ = true;
}

SimTime Simulator::external_horizon() const {
  if (queue_.empty()) return bulk_end_;
  return std::min(bulk_end_, queue_.next_time());
}

void Simulator::credit_external(std::uint64_t firings, SimTime last,
                                SimTime rearm_at) {
  if (firings == 0 || last < now_ || rearm_at < last ||
      !(last < external_horizon())) {
    throw std::invalid_argument{
        "Simulator::credit_external: firings outside the handler's horizon"};
  }
  fired_ += firings;
  now_ = last;
  // One seq per re-arm; the last one is the slot's live tie-break.
  queue_.set_next_seq(queue_.next_seq() + firings - 1);
  ext_time_ = rearm_at;
  ext_seq_ = queue_.take_seq();
  ext_armed_ = true;
}

std::uint64_t Simulator::run_until(SimTime limit) {
  const std::uint64_t fired_before = fired_;
  bulk_end_ = limit.is_infinite() ? limit : limit + SimTime::micros(1);
  for (;;) {
    if (queue_.empty()) {
      if (!ext_armed_ || ext_time_ > limit) break;
      fire_external();
      continue;
    }
    // One front observation per iteration: the merge against the external
    // slot and the limit check read the same (time, seq) pair, so paying
    // a queue-front lookup for each field would triple the per-event cost
    // on packet-heavy runs.
    const TimerWheel::Entry front = queue_.front_entry();
    const SimTime front_time = SimTime::micros(front.time_us);
    if (ext_armed_ && (ext_time_ < front_time ||
                       (ext_time_ == front_time && ext_seq_ < front.seq))) {
      if (ext_time_ > limit) break;
      fire_external();
      continue;
    }
    if (front_time > limit) break;
    auto fired = queue_.pop();
    now_ = fired.time;
    ++fired_;
    fired.callback();
  }
  // Counted from the ledger: external handlers may credit bulk firings.
  return fired_ - fired_before;
}

std::optional<EventId> Simulator::next_coincident_event() const {
  if (queue_.empty() || queue_.next_time() != now_) return std::nullopt;
  // An armed external slot due now with the earlier seq must fire first —
  // it is the globally next event, so the batch stops here.
  if (ext_armed_ && ext_time_ <= now_ &&
      ext_seq_ < queue_.next_event_seq()) {
    return std::nullopt;
  }
  return queue_.next_event_id();
}

void Simulator::consume_coincident(EventId id) {
  if (queue_.empty() || !(queue_.next_event_id() == id)) {
    throw std::logic_error{
        "Simulator::consume_coincident: id is not the front of the queue"};
  }
  // The clock is already at the event's time; it counts as fired so the
  // events_fired ledger (fingerprints, snapshots) matches the sequential
  // execution event for event.
  queue_.consume_next();
  ++fired_;
}

bool Simulator::step() {
  bulk_end_ = now_;  // exactly one event: no bulk external firings
  const bool has_queue = !queue_.empty();
  if (ext_armed_ && (!has_queue || external_first())) {
    fire_external();
    return true;
  }
  if (!has_queue) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  ++fired_;
  fired.callback();
  return true;
}

}  // namespace bgpsim::sim
