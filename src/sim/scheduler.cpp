#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bgpsim::sim {

namespace {

[[noreturn]] void refuse_schedule_in_handler() {
  throw std::logic_error{
      "Simulator: an event was scheduled while the external handler runs "
      "(its inline drain would fire data-plane items out of order)"};
}

}  // namespace

EventId Simulator::schedule_at(SimTime when, Callback cb, std::uint64_t tag) {
  if (in_external_) refuse_schedule_in_handler();
  if (when < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  }
  return queue_.push(when, std::move(cb), tag);
}

EventId Simulator::schedule_after(SimTime delay, Callback cb,
                                  std::uint64_t tag) {
  if (in_external_) refuse_schedule_in_handler();
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

void Simulator::arm_external(SimTime when, std::uint64_t seq) {
  if (!ext_handler_) {
    throw std::logic_error{"Simulator::arm_external: no handler installed"};
  }
  if (when < now_) {
    throw std::invalid_argument{"Simulator::arm_external: time in the past"};
  }
  if (seq >= queue_.next_seq()) {
    throw std::invalid_argument{"Simulator::arm_external: seq not yet drawn"};
  }
  ext_time_ = when;
  ext_seq_ = seq;
  ext_armed_ = true;
}

void Simulator::credit_external(std::uint64_t firings, SimTime last) {
  if (firings == 0 || last < now_ || !(last < inline_time_)) {
    throw std::invalid_argument{
        "Simulator::credit_external: firings outside the handler's horizon"};
  }
  fired_ += firings;
  now_ = last;
}

void Simulator::fire_external(SimTime bound_time, std::uint64_t bound_seq) {
  ext_armed_ = false;
  now_ = ext_time_;
  ++fired_;
  inline_time_ = bound_time;
  inline_seq_ = bound_seq;
  struct Running {
    bool& flag;
    explicit Running(bool& f) : flag{f} { flag = true; }
    ~Running() { flag = false; }
    Running(const Running&) = delete;
    Running& operator=(const Running&) = delete;
  } running{in_external_};
  ext_handler_();
}

std::uint64_t Simulator::run_until(SimTime limit) {
  const std::uint64_t fired_before = fired_;
  // Inline external firings stay within the limit: strictly before
  // (limit + 1 us, seq 0).
  const SimTime end = limit.is_infinite() ? limit : limit + SimTime::micros(1);
  for (;;) {
    if (queue_.empty()) {
      if (!ext_armed_ || ext_time_ > limit) break;
      fire_external(end, 0);
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
      if (front_time < end) {
        fire_external(front_time, front.seq);
      } else {
        fire_external(end, 0);
      }
      continue;
    }
    if (front_time > limit) break;
    auto fired = queue_.pop();
    now_ = fired.time;
    ++fired_;
    fired.callback();
  }
  // Counted from the ledger: the external handler may fire inline.
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
  const bool has_queue = !queue_.empty();
  if (ext_armed_ && (!has_queue || external_first())) {
    // Exactly one event: a (now, seq 0) bound admits no inline firing.
    fire_external(now_, 0);
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
