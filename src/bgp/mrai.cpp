#include "bgp/mrai.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace bgpsim::bgp {

bool MraiTimers::running(net::NodeId peer, net::Prefix prefix) const {
  const OutboundCell* cell = plane_.find(peer, prefix);
  return cell != nullptr && running(*cell);
}

bool MraiTimers::pending(net::NodeId peer, net::Prefix prefix) const {
  const OutboundCell* cell = plane_.find(peer, prefix);
  return cell != nullptr && running(*cell) && cell->mrai.pending;
}

void MraiTimers::set_pending(net::NodeId peer, net::Prefix prefix,
                             OutboundCell& cell, bool pending) {
  MraiState& st = cell.mrai;
  if (!running(cell) || st.pending == pending) return;
  st.pending = pending;
  if (pending) {
    ++pending_count_;
    if (st.ev.value == 0) promote(peer, prefix, st);
  } else {
    --pending_count_;
  }
}

void MraiTimers::start(net::NodeId peer, net::Prefix prefix,
                       OutboundCell& cell, sim::SimTime duration) {
  assert(!running(cell));
  MraiState& st = cell.mrai;
  if (st.pending) --pending_count_;  // dropped by clear_pending, never fired
  st = MraiState{};
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

void MraiTimers::promote(net::NodeId peer, net::Prefix prefix, MraiState& st) {
  st.ev = sim_.promote_deadline(st.deadline, st.seq,
                                [this, peer, prefix] { fire(peer, prefix); });
}

void MraiTimers::fire(net::NodeId peer, net::Prefix prefix) {
  OutboundCell* cell = plane_.find(peer, prefix);
  assert(cell != nullptr && cell->mrai.ev.value != 0);
  const bool was_pending = cell->mrai.pending;
  if (was_pending) --pending_count_;
  cell->mrai = MraiState{};
  if (on_expiry_) on_expiry_(peer, prefix, *cell, was_pending);
}

void MraiTimers::cancel_peer(net::NodeId peer) {
  PeerPlane::Row* row = plane_.find_row(peer);
  if (row == nullptr) return;
  for (OutboundCell& cell : row->cells) {
    MraiState& st = cell.mrai;
    if (st.pending) --pending_count_;
    if (running(cell)) {
      if (st.ev.value != 0) {
        sim_.cancel(st.ev);
      } else {
        sim_.withdraw_deadline(st.deadline, st.seq);
      }
    }
    st = MraiState{};
  }
}

std::size_t MraiTimers::running_count() const {
  std::size_t n = 0;
  for (const auto& row : plane_.rows()) {
    for (const OutboundCell& cell : row.cells) n += running(cell) ? 1 : 0;
  }
  return n;
}

void MraiTimers::save_state(snap::Writer& w) const {
  const std::size_t count_at = w.u64_slot();
  std::uint64_t count = 0;
  for (const auto& row : plane_.rows()) {
    for (net::Prefix prefix = 0; prefix < row.cells.size(); ++prefix) {
      const OutboundCell& cell = row.cells[prefix];
      if (!running(cell)) continue;
      w.u32(row.peer);
      w.u32(prefix);
      w.i64(cell.mrai.deadline.as_micros());
      w.u64(cell.mrai.seq);
      w.b(cell.mrai.pending);
      ++count;
    }
  }
  w.patch_u64(count_at, count);
}

void MraiTimers::restore_state(snap::Reader& r, std::uint32_t prefixes,
                               std::span<const net::NodeId> peers) {
  // Decoded into a temporary plane first, so a rejected record leaves the
  // live cells as they were.
  PeerPlane restored;
  std::size_t pending_count = 0;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::NodeId peer = r.u32();
    if (!std::binary_search(peers.begin(), peers.end(), peer)) {
      throw snap::FormatError{"MRAI timer toward " + std::to_string(peer) +
                              ", which is not a session peer"};
    }
    const net::Prefix prefix = snap::read_prefix(r, prefixes);
    const sim::SimTime deadline = sim::SimTime::micros(r.i64());
    const std::uint64_t seq = r.u64();
    const bool pending = r.b();
    if (seq == 0 || seq >= sim_.event_seq()) {
      throw snap::FormatError{"MRAI timer with a seq not yet drawn"};
    }
    if (sim_.has_passed(deadline, seq)) {
      throw snap::FormatError{"MRAI timer deadline before the recorded clock"};
    }
    MraiState& st = restored.at(peer, prefix).mrai;
    if (st.seq != 0) {
      throw snap::FormatError{"MRAI timer key repeated"};
    }
    st.deadline = deadline;
    st.seq = seq;
    st.pending = pending;
    // An in-place restore finds its promoted closure still queued.
    if (const OutboundCell* live = plane_.find(peer, prefix);
        live != nullptr && live->mrai.seq == seq &&
        live->mrai.deadline == deadline) {
      st.ev = live->mrai.ev;
    }
    if (pending) {
      if (st.ev.value == 0) {
        throw snap::FormatError{
            "MRAI timer holds a decision but no expiry event is queued"};
      }
      ++pending_count;
    }
  }
  for (auto& row : plane_.rows()) {
    for (OutboundCell& cell : row.cells) cell.mrai = MraiState{};
  }
  for (const auto& row : restored.rows()) {
    for (net::Prefix prefix = 0; prefix < row.cells.size(); ++prefix) {
      const MraiState& st = row.cells[prefix].mrai;
      if (st.seq != 0) plane_.at(row.peer, prefix).mrai = st;
    }
  }
  pending_count_ = pending_count;
}

}  // namespace bgpsim::bgp
