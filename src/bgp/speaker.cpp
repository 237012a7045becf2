#include "bgp/speaker.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bgp/assertion.hpp"
#include "bgp/policy.hpp"
#include "sim/logging.hpp"

namespace bgpsim::bgp {

Speaker::Speaker(net::NodeId self, BgpConfig config, sim::Simulator& simulator,
                 net::Transport& transport, fwd::Fib& fib, sim::Rng rng,
                 PathArena& paths, rib::LocalRibs& ribs)
    : self_{self},
      config_{config},
      sim_{simulator},
      transport_{transport},
      fib_{fib},
      rng_{std::move(rng)},
      paths_{paths},
      ribs_{ribs},
      mrai_{simulator, out_},
      touch_stamp_(ribs.prefix_count(), 0) {
  mrai_.set_expiry_handler([this](net::NodeId peer, net::Prefix prefix,
                                  OutboundCell& cell, bool was_pending) {
    on_mrai_expired(peer, prefix, cell, was_pending);
  });
}

void Speaker::set_peers(const std::vector<net::NodeId>& peers) {
  peers_ = peers;
  std::sort(peers_.begin(), peers_.end());
  peers_.erase(std::unique(peers_.begin(), peers_.end()), peers_.end());
}

namespace {

void check_prefix(net::Prefix prefix, const rib::LocalRibs& ribs) {
  if (prefix >= ribs.prefix_count()) {
    throw std::out_of_range{"prefix " + std::to_string(prefix) +
                            " is not below the network's prefix count " +
                            std::to_string(ribs.prefix_count())};
  }
}

}  // namespace

void Speaker::originate(net::Prefix prefix) {
  check_prefix(prefix, ribs_);
  originated_.insert(prefix);
  run_decision(prefix);
}

void Speaker::withdraw_origin(net::Prefix prefix) {
  if (originated_.erase(prefix) == 0) return;
  run_decision(prefix);
}

void Speaker::originate_batch(const std::vector<net::Prefix>& prefixes) {
  for (const net::Prefix prefix : prefixes) check_prefix(prefix, ribs_);
  StagingScope staging{*this};
  for (const net::Prefix prefix : prefixes) originated_.insert(prefix);
  for (const net::Prefix prefix : prefixes) run_decision(prefix);
}

void Speaker::withdraw_origin_batch(const std::vector<net::Prefix>& prefixes) {
  StagingScope staging{*this};
  std::vector<net::Prefix> removed;
  removed.reserve(prefixes.size());
  for (const net::Prefix prefix : prefixes) {
    if (originated_.erase(prefix) > 0) removed.push_back(prefix);
  }
  for (const net::Prefix prefix : removed) run_decision(prefix);
}

void Speaker::handle_update(net::NodeId from, const UpdateMsg& update) {
  ++counters_.updates_received;
  // A message can race a session drop (in-flight when the link died is
  // already lost, but a restore/re-drop can interleave); ignore strays.
  if (!is_peer(from)) return;
  if (hooks_.on_update_received) hooks_.on_update_received(self_, from, update);
  apply_update(from, update);
  run_decision(update.prefix);
}

void Speaker::handle_update_batch(net::NodeId from, const UpdateBatch& batch) {
  StagingScope staging{*this};
  touched_.clear();  // first-touch order
  if (++batch_stamp_ == 0) {  // wrapped: forget every older stamp
    std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0);
    batch_stamp_ = 1;
  }
  const bool from_peer = is_peer(from);
  for (const UpdateMsg& update : batch.updates) {
    ++counters_.updates_received;
    if (!from_peer) continue;  // stray (see handle_update)
    if (hooks_.on_update_received) {
      hooks_.on_update_received(self_, from, update);
    }
    apply_update(from, update);
    if (touch_stamp_[update.prefix] != batch_stamp_) {
      touch_stamp_[update.prefix] = batch_stamp_;
      touched_.push_back(update.prefix);
    }
  }
  // One decision pass per touched prefix, however many updates arrived —
  // the batched decision processing over the shared column block.
  for (const net::Prefix prefix : touched_) run_decision(prefix);
}

void Speaker::apply_update(net::NodeId from, const UpdateMsg& update) {
  const net::Prefix prefix = update.prefix;
  if (update.is_withdrawal()) {
    ribs_.adj_withdraw(self_, prefix, from);
    if (config_.assertion) {
      counters_.assertion_removals +=
          assert_on_withdraw(ribs_.adj_entries(self_, prefix), from);
    }
  } else {
    if (update.path->contains(self_)) {
      // Path-based poison reverse: the route is unusable here, and it
      // *replaces* whatever this peer previously advertised.
      ++counters_.poison_reverse_discards;
      ribs_.adj_withdraw(self_, prefix, from);
    } else {
      ribs_.adj_set(self_, prefix, from, *update.path);
    }
    // Assertion uses the announcement as ground truth about `from`'s own
    // route regardless of whether we can use the path ourselves.
    if (config_.assertion) {
      counters_.assertion_removals += assert_on_announce(
          ribs_.adj_entries(self_, prefix), from, *update.path);
    }
  }
  BGPSIM_LOG(sim::LogLevel::kTrace, "bgp", sim_.now())
      << "node " << self_ << " recv from " << from << ": "
      << update.to_string();
}

void Speaker::handle_session(net::NodeId peer, bool up) {
  StagingScope staging{*this};
  if (hooks_.on_session_changed) hooks_.on_session_changed(self_, peer, up);
  const auto pos = std::lower_bound(peers_.begin(), peers_.end(), peer);
  if (up) {
    if (pos == peers_.end() || *pos != peer) peers_.insert(pos, peer);
    // Session (re-)established: offer our current table to the new peer.
    for (net::Prefix prefix = 0; prefix < ribs_.prefix_count(); ++prefix) {
      if (const AsPath* loc = ribs_.best(self_, prefix)) {
        consider_send(peer, prefix, out_.at(peer, prefix), loc);
      }
    }
    return;
  }

  if (pos != peers_.end() && *pos == peer) peers_.erase(pos);
  mrai_.cancel_peer(peer);
  out_.drop(peer);

  // A session loss implicitly withdraws everything `peer` advertised. It
  // says nothing about the routes the peer itself uses, so Assertion
  // prunes nothing more here (see bgp/assertion.hpp).
  ribs_.adj_drop_peer(self_, peer);
  // Re-decide every prefix with a route or a remaining entry. A prefix the
  // drop emptied without a route to lose decides nothing new, so skipping
  // it equals deciding it.
  for (net::Prefix p = 0; p < ribs_.prefix_count(); ++p) {
    if (ribs_.best(self_, p) != nullptr ||
        !ribs_.adj_entries(self_, p).empty()) {
      run_decision(p);
    }
  }
}

void Speaker::run_decision(net::Prefix prefix) {
  std::optional<AsPath> new_loc;
  if (originated_.contains(prefix)) {
    new_loc = paths_.make({self_});
  } else if (auto best = select_best(ribs_.adj_entries(self_, prefix), self_,
                                     config_.policy)) {
    new_loc = paths_.prepend(self_, *best);
  }

  // Backup caution (§3.3 future work): don't jump onto a *worse* backup
  // the instant the good path dies — it is exactly the obsolete-state pick
  // that forms loops. Behave as unreachable for the caution window; any
  // equal-or-better route arriving meanwhile is adopted immediately.
  if (config_.backup_caution > sim::SimTime::zero()) {
    const AsPath* current = ribs_.best(self_, prefix);
    auto held = caution_lost_length_.find(prefix);
    if (held != caution_lost_length_.end()) {
      if (new_loc && new_loc->length() <= held->second) {
        caution_lost_length_.erase(held);  // genuine replacement: accept
      } else {
        new_loc = std::nullopt;  // still verifying: stay down
      }
    } else if (current && new_loc && new_loc->length() > current->length()) {
      ++counters_.caution_holds;
      caution_lost_length_.emplace(prefix, current->length());
      new_loc = std::nullopt;
      sim_.schedule_after(config_.backup_caution, [this, prefix] {
        if (caution_lost_length_.erase(prefix) > 0) run_decision(prefix);
      });
    }
  }

  const AsPath* old = ribs_.best(self_, prefix);
  // 0 = no previous route (an installed path is never empty).
  const std::size_t old_len = old != nullptr ? old->length() : 0;
  if (!ribs_.set_best(self_, prefix, new_loc)) return;  // decision unchanged
  ++counters_.best_path_changes;

  if (new_loc && new_loc->length() >= 2) {
    fib_.set_next_hop(prefix, new_loc->hops()[1]);
  } else {
    fib_.clear_route(prefix);
  }
  BGPSIM_LOG(sim::LogLevel::kDebug, "bgp", sim_.now())
      << "node " << self_ << " best path p" << prefix << " -> "
      << (new_loc ? new_loc->to_string() : "(unreachable)");
  if (hooks_.on_best_changed) hooks_.on_best_changed(self_, prefix, new_loc);

  // Ghost Flushing: the path just got *worse*; peers still holding our old
  // (better, now ghost) path whose refresh is stuck behind MRAI get an
  // immediate withdrawal so the stale information stops spreading.
  if (config_.ghost_flushing && old_len != 0 && new_loc &&
      new_loc->length() > old_len) {
    ghost_flush(prefix);
  }

  advertise_to_all(prefix);
}

void Speaker::advertise_to_all(net::Prefix prefix) {
  const AsPath* loc = ribs_.best(self_, prefix);
  for (net::NodeId peer : peers_) {
    consider_send(peer, prefix, out_.at(peer, prefix), loc);
  }
}

UpdateMsg Speaker::desired_update(net::NodeId peer, net::Prefix prefix,
                                  const AsPath* loc) {
  if (!loc) return UpdateMsg::withdraw(prefix);
  if (config_.policy && !policy_exportable(*config_.policy, self_, *loc, peer)) {
    // No-valley export rule: this peer must not receive the route (and any
    // earlier advertisement of a now-unexportable route is retracted).
    return UpdateMsg::withdraw(prefix);
  }
  if (config_.ssld && loc->contains(peer)) {
    // Sender-side loop detection: the receiver would discard this path
    // anyway; send the (MRAI-exempt) withdrawal instead so the implicit
    // poison-reverse information arrives sooner.
    return UpdateMsg::withdraw(prefix);
  }
  return UpdateMsg::announce(prefix, *loc);
}

bool Speaker::already_advertised(const OutboundCell& cell,
                                 const UpdateMsg& desired) {
  const bool announced = cell.sent == OutboundCell::Sent::kAnnounced;
  if (desired.is_withdrawal()) {
    // Nothing to retract if the peer never heard an announcement from us.
    return !announced;
  }
  return announced && cell.path == *desired.path;
}

void Speaker::consider_send(net::NodeId peer, net::Prefix prefix,
                            OutboundCell& cell, const AsPath* loc) {
  const UpdateMsg desired = desired_update(peer, prefix, loc);
  const bool same = already_advertised(cell, desired);
  const bool rate_limited = !desired.is_withdrawal() || config_.wrate;
  if (rate_limited && mrai_.running(cell)) {
    // Hold the decision; the expiry handler re-derives the then-current
    // desired update (intermediate flaps are never transmitted).
    mrai_.set_pending(peer, prefix, cell, !same);
    return;
  }
  if (same) return;
  if (config_.ssld && desired.is_withdrawal() && loc && loc->contains(peer)) {
    ++counters_.ssld_conversions;
  }
  send_update(peer, prefix, cell, desired);
}

void Speaker::send_update(net::NodeId peer, net::Prefix prefix,
                          OutboundCell& cell, UpdateMsg update) {
  if (update.is_withdrawal()) {
    cell.sent = OutboundCell::Sent::kWithdrawn;
    cell.path = AsPath{};
    ++counters_.withdrawals_sent;
  } else {
    cell.sent = OutboundCell::Sent::kAnnounced;
    cell.path = *update.path;
    ++counters_.announcements_sent;
  }

  BGPSIM_LOG(sim::LogLevel::kTrace, "bgp", sim_.now())
      << "node " << self_ << " send to " << peer << ": " << update.to_string();

  const bool start_timer =
      (!update.is_withdrawal() || config_.wrate) && !mrai_.running(cell);
  // A bypassing withdrawal supersedes any decision held behind the timer.
  mrai_.set_pending(peer, prefix, cell, false);

  if (staging_) {
    // Multiprefix batching: defer the wire hop to the enclosing scope's
    // flush. All protocol bookkeeping (counters, advertised mirror, MRAI
    // starts, hooks) stays at logical-send time, so only the transport
    // message shape changes.
    staged_.emplace_back(peer, update);
  } else {
    transport_.send(self_, peer, update);
  }
  if (hooks_.on_update_sent) hooks_.on_update_sent(self_, peer, update);

  if (start_timer) mrai_.start(peer, prefix, cell, jittered_mrai());
}

void Speaker::flush_staged() {
  if (staged_.empty()) return;
  // Group per peer (ascending), preserving each peer's message order: a
  // counting sort of the staging positions by the peer's rank in peers_.
  // Every staged send went to a session peer, so each has a rank.
  flush_start_.assign(peers_.size() + 1, 0);
  for (const auto& [peer, msg] : staged_) ++flush_start_[peer_rank(peer) + 1];
  for (std::size_t r = 1; r < flush_start_.size(); ++r) {
    flush_start_[r] += flush_start_[r - 1];
  }
  flush_order_.resize(staged_.size());
  for (std::uint32_t i = 0; i < staged_.size(); ++i) {
    flush_order_[flush_start_[peer_rank(staged_[i].first)]++] = i;
  }
  // flush_start_[r] is now the end of rank r's run.
  std::size_t begin = 0;
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    const std::size_t end = flush_start_[r];
    if (end - begin == 1) {
      transport_.send(self_, peers_[r], staged_[flush_order_[begin]].second);
    } else if (end - begin > 1) {
      UpdateBatch batch;
      batch.updates.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        batch.updates.push_back(staged_[flush_order_[i]].second);
      }
      transport_.send(self_, peers_[r], std::move(batch));
    }
    begin = end;
  }
  staged_.clear();
}

void Speaker::on_mrai_expired(net::NodeId peer, net::Prefix prefix,
                              OutboundCell& cell, bool was_pending) {
  if (hooks_.on_mrai_expired) {
    hooks_.on_mrai_expired(self_, peer, prefix, was_pending);
  }
  if (was_pending) consider_send(peer, prefix, cell, ribs_.best(self_, prefix));
}

void Speaker::ghost_flush(net::Prefix prefix) {
  for (net::NodeId peer : peers_) {
    OutboundCell* cell = out_.find(peer, prefix);
    if (cell == nullptr || !mrai_.running(*cell)) continue;  // not delayed
    if (cell->sent != OutboundCell::Sent::kAnnounced) continue;
    ++counters_.ghost_flushes;
    send_update(peer, prefix, *cell, UpdateMsg::withdraw(prefix));
    // The (longer) replacement path follows at MRAI expiry.
    mrai_.set_pending(peer, prefix, *cell, true);
  }
}

void Speaker::save_state(snap::Writer& w) const {
  snap::write_rng(w, rng_);
  w.u64(peers_.size());
  for (const net::NodeId peer : peers_) w.u32(peer);
  w.u64(originated_.size());
  for (const net::Prefix prefix : originated_) w.u32(prefix);
  ribs_.save_adj(self_, w);
  ribs_.save_best(self_, w);
  mrai_.save_state(w);
  w.u64(caution_lost_length_.size());
  for (const auto& [prefix, lost_length] : caution_lost_length_) {
    w.u32(prefix);
    w.u64(lost_length);
  }
  // Sent cells in ascending (peer, prefix) order, count first.
  const std::size_t sent_at = w.u64_slot();
  std::uint64_t sent = 0;
  for (const auto& row : out_.rows()) {
    for (net::Prefix prefix = 0; prefix < row.cells.size(); ++prefix) {
      const OutboundCell& cell = row.cells[prefix];
      if (cell.sent == OutboundCell::Sent::kNotSent) continue;
      w.u32(row.peer);
      w.u32(prefix);
      w.u8(static_cast<std::uint8_t>(cell.sent));
      cell.path.save(w);
      ++sent;
    }
  }
  w.patch_u64(sent_at, sent);
  w.u64(counters_.announcements_sent);
  w.u64(counters_.withdrawals_sent);
  w.u64(counters_.updates_received);
  w.u64(counters_.poison_reverse_discards);
  w.u64(counters_.assertion_removals);
  w.u64(counters_.ghost_flushes);
  w.u64(counters_.ssld_conversions);
  w.u64(counters_.best_path_changes);
  w.u64(counters_.caution_holds);
}

void Speaker::restore_state(snap::Reader& r) {
  snap::read_rng(r, rng_);
  std::vector<net::NodeId> peers;
  const std::uint64_t n_peers = r.u64();
  for (std::uint64_t i = 0; i < n_peers; ++i) peers.push_back(r.u32());
  set_peers(peers);
  // Every prefix below is bounded by the store's P, and every peer must
  // be one of the sessions just restored.
  const std::uint32_t prefixes = ribs_.prefix_count();
  originated_.clear();
  const std::uint64_t n_origins = r.u64();
  for (std::uint64_t i = 0; i < n_origins; ++i) {
    originated_.insert(snap::read_prefix(r, prefixes));
  }
  ribs_.restore_adj(self_, r, paths_, peers_);
  ribs_.restore_best(self_, r, paths_);
  mrai_.restore_state(r, prefixes, peers_);
  caution_lost_length_.clear();
  const std::uint64_t n_caution = r.u64();
  for (std::uint64_t i = 0; i < n_caution; ++i) {
    const net::Prefix prefix = snap::read_prefix(r, prefixes);
    const std::uint64_t lost_length = r.u64();
    caution_lost_length_.emplace(prefix,
                                 static_cast<std::size_t>(lost_length));
  }
  for (auto& row : out_.rows()) {
    for (OutboundCell& cell : row.cells) {
      cell.sent = OutboundCell::Sent::kNotSent;
      cell.path = AsPath{};
    }
  }
  const std::uint64_t n_adv = r.u64();
  for (std::uint64_t i = 0; i < n_adv; ++i) {
    const net::NodeId peer = r.u32();
    if (!is_peer(peer)) {
      throw snap::FormatError{"Adj-RIB-Out entry toward " +
                              std::to_string(peer) +
                              ", which is not a session peer"};
    }
    const net::Prefix prefix = snap::read_prefix(r, prefixes);
    const std::uint8_t kind = r.u8();
    if (kind != static_cast<std::uint8_t>(OutboundCell::Sent::kAnnounced) &&
        kind != static_cast<std::uint8_t>(OutboundCell::Sent::kWithdrawn)) {
      throw snap::FormatError{"advertised entry with unknown kind " +
                              std::to_string(kind)};
    }
    const AsPath path = paths_.load(r);
    OutboundCell& cell = out_.at(peer, prefix);
    if (cell.sent != OutboundCell::Sent::kNotSent) continue;  // first wins
    cell.sent = static_cast<OutboundCell::Sent>(kind);
    cell.path = path;
  }
  counters_.announcements_sent = r.u64();
  counters_.withdrawals_sent = r.u64();
  counters_.updates_received = r.u64();
  counters_.poison_reverse_discards = r.u64();
  counters_.assertion_removals = r.u64();
  counters_.ghost_flushes = r.u64();
  counters_.ssld_conversions = r.u64();
  counters_.best_path_changes = r.u64();
  counters_.caution_holds = r.u64();
}

sim::SimTime Speaker::jittered_mrai() {
  if (config_.jitter_lo == config_.jitter_hi) {
    return sim::SimTime::seconds(config_.mrai.as_seconds() * config_.jitter_lo);
  }
  return sim::SimTime::seconds(
      config_.mrai.as_seconds() *
      rng_.uniform(config_.jitter_lo, config_.jitter_hi));
}

}  // namespace bgpsim::bgp
