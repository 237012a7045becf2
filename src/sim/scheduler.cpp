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

EventId Simulator::schedule_at(SimTime when, Callback cb) {
  if (in_external_) refuse_schedule_in_handler();
  if (when < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  }
  return queue_.push(when, std::move(cb));
}

EventId Simulator::schedule_after(SimTime delay, Callback cb) {
  if (in_external_) refuse_schedule_in_handler();
  if (delay < SimTime::zero()) {
    throw std::invalid_argument{"Simulator::schedule_after: negative delay"};
  }
  return queue_.push(now_ + delay, std::move(cb));
}

void Simulator::add_deadline(SimTime when, std::uint64_t seq) {
  if (when < now_) {
    throw std::invalid_argument{"Simulator::add_deadline: time in the past"};
  }
  if (seq >= queue_.next_seq() ||
      (!ledger_.empty() && seq <= ledger_.back().seq)) {
    throw std::invalid_argument{
        "Simulator::add_deadline: seq not drawn, or older than the ledger's"};
  }
  if (ledger_.size() >= compact_at_) {
    credit_passed();
    compact_at_ = std::max(kMinCompactAt, 2 * ledger_.size());
  }
  ledger_.push_back(Deadline{when.as_micros(), seq});
}

Simulator::Deadline* Simulator::find_deadline(SimTime when,
                                              std::uint64_t seq) {
  const auto it = std::lower_bound(
      ledger_.begin(), ledger_.end(), seq,
      [](const Deadline& d, std::uint64_t s) { return d.seq < s; });
  if (it == ledger_.end() || it->seq != seq ||
      it->time_us != when.as_micros()) {
    return nullptr;
  }
  return &*it;
}

EventId Simulator::promote_deadline(SimTime when, std::uint64_t seq,
                                    Callback cb) {
  if (in_external_) refuse_schedule_in_handler();
  if (!withdraw_deadline(when, seq)) {
    throw std::logic_error{
        "Simulator::promote_deadline: no such deadline is outstanding"};
  }
  return queue_.push_drawn(when, seq, std::move(cb));
}

bool Simulator::withdraw_deadline(SimTime when, std::uint64_t seq) {
  Deadline* d = find_deadline(when, seq);
  if (d == nullptr || has_passed(*d)) return false;
  d->time_us = -1;
  return true;
}

std::uint64_t Simulator::ledger_passed() const {
  std::uint64_t n = 0;
  for (const Deadline& d : ledger_) {
    if (d.time_us >= 0 && has_passed(d)) ++n;
  }
  return n;
}

std::size_t Simulator::pending() const {
  std::size_t n = queue_.size() + (ext_armed_ ? 1 : 0);
  for (const Deadline& d : ledger_) {
    if (d.time_us >= 0 && !has_passed(d)) ++n;
  }
  return n;
}

template <typename Gone>
std::pair<std::uint64_t, std::int64_t> Simulator::sweep_ledger(Gone gone) {
  std::uint64_t n = 0;
  std::int64_t latest = -1;
  auto kept = ledger_.begin();
  for (const Deadline& d : ledger_) {
    if (d.time_us < 0) continue;
    if (gone(d)) {
      ++n;
      latest = std::max(latest, d.time_us);
    } else {
      *kept++ = d;
    }
  }
  ledger_.erase(kept, ledger_.end());
  deadlines_passed_ += n;
  return {n, latest};
}

void Simulator::credit_passed() {
  fired_ += sweep_ledger([this](const Deadline& d) { return has_passed(d); })
                .first;
}

void Simulator::clear_pending() {
  queue_.clear();
  ext_armed_ = false;
  credit_passed();
  ledger_.clear();
}

void Simulator::restore_clock(SimTime now, std::uint64_t fired,
                              std::uint64_t seq) {
  // The recorded count already includes every deadline passed here.
  (void)sweep_ledger([this](const Deadline& d) { return has_passed(d); });
  now_ = now;
  fired_ = fired;
  queue_.set_next_seq(seq);
}

std::vector<std::pair<std::int64_t, std::uint64_t>>
Simulator::pending_entries() const {
  auto out = queue_.pending_entries();
  const std::size_t queued = out.size();
  for (const Deadline& d : ledger_) {
    if (d.time_us >= 0 && !has_passed(d)) out.emplace_back(d.time_us, d.seq);
  }
  // Ledger entries are in seq order, not time order: merge by full sort.
  if (out.size() > queued) std::sort(out.begin(), out.end());
  return out;
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
  pos_seq_ = ext_seq_;
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
  const std::uint64_t fired_before = events_fired();
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
    pos_seq_ = front.seq;
    ++fired_;
    fired.callback();
  }
  // Every deadline within the limit has passed by now, including those
  // after the last event: they move the clock as the events would have.
  const auto [credited, latest] = sweep_ledger(
      [limit](const Deadline& d) { return SimTime::micros(d.time_us) <= limit; });
  fired_ += credited;
  if (latest > now_.as_micros()) now_ = SimTime::micros(latest);
  // Everything drawn so far at the clock's microsecond has fired.
  if (now_ <= limit) pos_seq_ = queue_.next_seq() - 1;
  // Counted from the totals: the external handler may fire inline.
  return events_fired() - fired_before;
}

bool Simulator::step() {
  // The earliest unpassed deadline, if it precedes the queue front and
  // the external slot, is the event this step fires.
  const Deadline* next = nullptr;
  for (const Deadline& d : ledger_) {
    if (d.time_us < 0 || has_passed(d)) continue;
    if (next == nullptr || d.time_us < next->time_us ||
        (d.time_us == next->time_us && d.seq < next->seq)) {
      next = &d;
    }
  }
  const bool has_queue = !queue_.empty();
  const auto before = [](std::int64_t t, std::uint64_t s, SimTime ot,
                         std::uint64_t os) {
    return t < ot.as_micros() || (t == ot.as_micros() && s < os);
  };
  if (next != nullptr &&
      (!has_queue || before(next->time_us, next->seq, queue_.next_time(),
                            queue_.next_event_seq())) &&
      (!ext_armed_ || before(next->time_us, next->seq, ext_time_, ext_seq_))) {
    // Passing it is all that happens; events_fired() counts it from here.
    now_ = SimTime::micros(next->time_us);
    pos_seq_ = next->seq;
    return true;
  }
  if (ext_armed_ && (!has_queue || external_first())) {
    // Exactly one event: a (now, seq 0) bound admits no inline firing.
    fire_external(now_, 0);
    return true;
  }
  if (!has_queue) return false;
  pos_seq_ = queue_.next_event_seq();
  auto fired = queue_.pop();
  now_ = fired.time;
  ++fired_;
  fired.callback();
  return true;
}

}  // namespace bgpsim::sim
