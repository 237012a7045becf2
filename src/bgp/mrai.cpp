#include "bgp/mrai.hpp"

#include <cassert>

namespace bgpsim::bgp {
namespace {

/// The scheduler tag of a timer's expiry event: its (peer, prefix) key.
constexpr std::uint64_t timer_tag(net::NodeId peer, net::Prefix prefix) {
  return (std::uint64_t{peer} << 32) | prefix;
}

}  // namespace

bool MraiTimers::running(net::NodeId peer, net::Prefix prefix) const {
  return is_running(timers_.find(peer, prefix));
}

bool MraiTimers::pending(net::NodeId peer, net::Prefix prefix) const {
  const State* st = timers_.find(peer, prefix);
  return is_running(st) && st->pending;
}

void MraiTimers::set_pending(net::NodeId peer, net::Prefix prefix,
                             bool pending) {
  State* st = timers_.find(peer, prefix);
  if (!is_running(st) || st->pending == pending) return;
  st->pending = pending;
  if (pending) {
    ++pending_count_;
  } else {
    --pending_count_;
  }
}

void MraiTimers::start(net::NodeId peer, net::Prefix prefix,
                       sim::SimTime duration, sim::Simulator& simulator) {
  State& st = timers_.at(peer, prefix);
  assert(st.ev.value == 0);
  st.pending = false;
  st.ev = simulator.schedule_after(
      duration,
      [this, peer, prefix, sim = &simulator] { fire(peer, prefix, *sim); },
      timer_tag(peer, prefix));
  ++running_count_;
}

void MraiTimers::stop(State& st) {
  if (st.pending) --pending_count_;
  st = State{};
  --running_count_;
}

void MraiTimers::fire(net::NodeId peer, net::Prefix prefix,
                      sim::Simulator& simulator) {
  State* st = timers_.find(peer, prefix);
  assert(is_running(st));
  batch_.clear();
  batch_.push_back(Expiry{peer, prefix, st->pending});
  stop(*st);

  if (simulator.burst_delivery()) {
    // Gather the run of immediately following events that are this
    // object's own timers due at this exact instant. Only the globally
    // next event is ever taken, so any foreign event (another component's
    // closure, the external slot) in between ends the batch — the
    // resulting delivery order is exactly the sequential one. The tag
    // names the candidate timer; its stored id proves the event is ours
    // (another speaker's timer carries the same kind of tag). Consumed
    // closures are discarded whole; the batch entries carry everything
    // the handlers need.
    while (const auto id = simulator.next_coincident_event()) {
      const std::uint64_t tag = simulator.next_event_tag();
      const auto next_peer = static_cast<net::NodeId>(tag >> 32);
      const auto next_prefix = static_cast<net::Prefix>(tag);
      State* next = timers_.find(next_peer, next_prefix);
      if (next == nullptr || !(next->ev == *id)) break;
      simulator.consume_coincident(*id);
      batch_.push_back(Expiry{next_peer, next_prefix, next->pending});
      stop(*next);
    }
  }

  if (batch_.size() > 1 && on_burst_) {
    on_burst_(batch_);
  } else if (on_expiry_) {
    for (const Expiry& e : batch_) on_expiry_(e.peer, e.prefix, e.was_pending);
  }
}

void MraiTimers::cancel_peer(net::NodeId peer, sim::Simulator& simulator) {
  auto* row = timers_.find_row(peer);
  if (row == nullptr) return;
  // Ascending prefix order: the cancels free event-queue slots, and the
  // order they are freed in decides the ids of later events.
  for (State& st : row->cells) {
    if (st.ev.value == 0) continue;
    simulator.cancel(st.ev);
    stop(st);
  }
  timers_.drop(peer);
}

void MraiTimers::save_state(snap::Writer& w) const {
  w.u64(running_count_);
  for (const auto& row : timers_.rows()) {
    for (net::Prefix prefix = 0; prefix < row.cells.size(); ++prefix) {
      const State& st = row.cells[prefix];
      if (st.ev.value == 0) continue;
      w.u32(row.peer);
      w.u32(prefix);
      w.b(st.pending);
      w.u64(st.ev.value);
    }
  }
}

void MraiTimers::restore_state(snap::Reader& r) {
  timers_.clear();
  running_count_ = 0;
  pending_count_ = 0;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::NodeId peer = r.u32();
    const net::Prefix prefix = snap::read_prefix(r);
    const bool pending = r.b();
    const sim::EventId ev{r.u64()};
    if (ev.value == 0) {
      throw snap::FormatError{"MRAI timer with a null event id"};
    }
    State& st = timers_.at(peer, prefix);
    if (st.ev.value != 0) continue;  // a repeated key keeps its first entry
    st.ev = ev;
    st.pending = pending;
    ++running_count_;
    if (pending) ++pending_count_;
  }
}

}  // namespace bgpsim::bgp
