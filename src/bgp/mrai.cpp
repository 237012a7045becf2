#include "bgp/mrai.hpp"

#include <cassert>

namespace bgpsim::bgp {

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
    if (st->ev.value == 0) promote(peer, prefix, *st);
  } else {
    --pending_count_;
  }
}

void MraiTimers::start(net::NodeId peer, net::Prefix prefix,
                       sim::SimTime duration) {
  State& st = timers_.at(peer, prefix);
  assert(!is_running(&st));
  if (st.pending) --pending_count_;  // dropped by clear_pending, never fired
  st = State{};
  st.deadline = sim_.now() + duration;
  if (every_expiry_) {
    // The seq schedule_at draws, read before it draws it.
    st.seq = sim_.event_seq();
    st.ev = sim_.schedule_at(st.deadline,
                             [this, peer, prefix] { fire(peer, prefix); });
  } else {
    st.seq = sim_.take_seq();
    sim_.add_deadline(st.deadline, st.seq);
  }
}

void MraiTimers::promote(net::NodeId peer, net::Prefix prefix, State& st) {
  st.ev = sim_.promote_deadline(st.deadline, st.seq,
                                [this, peer, prefix] { fire(peer, prefix); });
}

void MraiTimers::fire(net::NodeId peer, net::Prefix prefix) {
  State* st = timers_.find(peer, prefix);
  assert(st != nullptr && st->ev.value != 0);
  const bool was_pending = st->pending;
  if (was_pending) --pending_count_;
  *st = State{};
  if (on_expiry_) on_expiry_(peer, prefix, was_pending);
}

void MraiTimers::cancel_peer(net::NodeId peer) {
  auto* row = timers_.find_row(peer);
  if (row == nullptr) return;
  for (State& st : row->cells) {
    if (st.pending) --pending_count_;
    if (!is_running(&st)) continue;
    if (st.ev.value != 0) {
      sim_.cancel(st.ev);
    } else {
      sim_.withdraw_deadline(st.deadline, st.seq);
    }
  }
  timers_.drop(peer);
}

std::size_t MraiTimers::running_count() const {
  std::size_t n = 0;
  for (const auto& row : timers_.rows()) {
    for (const State& st : row.cells) n += is_running(&st) ? 1 : 0;
  }
  return n;
}

void MraiTimers::save_state(snap::Writer& w) const {
  w.u64(running_count());
  for (const auto& row : timers_.rows()) {
    for (net::Prefix prefix = 0; prefix < row.cells.size(); ++prefix) {
      const State& st = row.cells[prefix];
      if (!is_running(&st)) continue;
      w.u32(row.peer);
      w.u32(prefix);
      w.i64(st.deadline.as_micros());
      w.u64(st.seq);
      w.b(st.pending);
    }
  }
}

void MraiTimers::restore_state(snap::Reader& r) {
  PeerPlane<State> restored;
  std::size_t pending_count = 0;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::NodeId peer = r.u32();
    const net::Prefix prefix = snap::read_prefix(r);
    const sim::SimTime deadline = sim::SimTime::micros(r.i64());
    const std::uint64_t seq = r.u64();
    const bool pending = r.b();
    if (seq == 0 || seq >= sim_.event_seq()) {
      throw snap::FormatError{"MRAI timer with a seq not yet drawn"};
    }
    if (sim_.has_passed(deadline, seq)) {
      throw snap::FormatError{"MRAI timer deadline before the recorded clock"};
    }
    State& st = restored.at(peer, prefix);
    if (st.seq != 0) {
      throw snap::FormatError{"MRAI timer key repeated"};
    }
    st.deadline = deadline;
    st.seq = seq;
    st.pending = pending;
    // An in-place restore finds its promoted closure still queued.
    if (const State* live = timers_.find(peer, prefix);
        live != nullptr && live->seq == seq && live->deadline == deadline) {
      st.ev = live->ev;
    }
    if (pending) {
      if (st.ev.value == 0) {
        throw snap::FormatError{
            "MRAI timer holds a decision but no expiry event is queued"};
      }
      ++pending_count;
    }
  }
  timers_ = std::move(restored);
  pending_count_ = pending_count;
}

}  // namespace bgpsim::bgp
