#include "dv/speaker.hpp"

#include <algorithm>

namespace bgpsim::dv {

DvSpeaker::DvSpeaker(net::NodeId self, DvConfig config,
                     sim::Simulator& simulator, net::Transport& transport,
                     fwd::Fib& fib, sim::Rng rng)
    : self_{self},
      config_{config},
      sim_{simulator},
      transport_{transport},
      fib_{fib},
      rng_{std::move(rng)} {
  if (config_.periodic > sim::SimTime::zero()) start_periodic();
}

void DvSpeaker::set_peers(const std::vector<net::NodeId>& peers) {
  peers_ = std::set<net::NodeId>(peers.begin(), peers.end());
}

void DvSpeaker::originate(net::Prefix prefix) {
  originated_.insert(prefix);
  table_[prefix] = Entry{0, net::kInvalidNode};
  after_change(prefix);
}

void DvSpeaker::withdraw_origin(net::Prefix prefix) {
  if (originated_.erase(prefix) == 0) return;
  table_[prefix] = Entry{config_.infinity, net::kInvalidNode};
  after_change(prefix);
}

void DvSpeaker::handle_update(net::NodeId from, const DvUpdate& update) {
  if (!peers_.contains(from)) return;
  for (const auto& [prefix, sender_metric] : update.routes) {
    relax(from, prefix, sender_metric);
  }
}

void DvSpeaker::relax(net::NodeId from, net::Prefix prefix,
                      int sender_metric) {
  if (originated_.contains(prefix)) return;  // our own origination wins
  const int candidate =
      std::min(sender_metric + 1, config_.infinity);

  auto it = table_.find(prefix);
  const bool have = it != table_.end();
  if (have && it->second.next_hop == from) {
    // Updates from the current next hop are authoritative, better or worse
    // — this is where counting-to-infinity begins.
    if (it->second.metric != candidate) {
      it->second.metric = candidate;
      after_change(prefix);
    }
    return;
  }
  if (candidate >= config_.infinity) return;  // not an improvement
  if (!have || candidate < it->second.metric) {
    table_[prefix] = Entry{candidate, from};
    after_change(prefix);
  }
}

void DvSpeaker::after_change(net::Prefix prefix) {
  ++counters_.route_changes;
  const auto& entry = table_.at(prefix);
  const bool reachable = entry.metric < config_.infinity;
  if (reachable && entry.next_hop != net::kInvalidNode) {
    fib_.set_next_hop(prefix, entry.next_hop);
  } else {
    fib_.clear_route(prefix);
  }
  if (hooks_.on_route_changed) {
    hooks_.on_route_changed(self_, prefix,
                            reachable ? std::optional{entry.metric}
                                      : std::nullopt);
  }
  schedule_trigger();
}

void DvSpeaker::schedule_trigger() {
  if (!config_.triggered) return;  // periodic refresh only
  if (trigger_pending_) return;    // changes batch into the pending update
  trigger_pending_ = true;
  const sim::SimTime delay =
      config_.triggered_delay_lo == config_.triggered_delay_hi
          ? config_.triggered_delay_lo
          : rng_.uniform_time(config_.triggered_delay_lo,
                              config_.triggered_delay_hi);
  sim_.schedule_after(delay, [this] {
    trigger_pending_ = false;
    send_full_table();
  });
}

void DvSpeaker::send_full_table() {
  for (const net::NodeId peer : peers_) {
    DvUpdate update;
    update.routes.reserve(table_.size());
    for (const auto& [prefix, entry] : table_) {
      if (config_.split_horizon && entry.next_hop == peer) {
        if (config_.poison_reverse) {
          update.routes.emplace_back(prefix, config_.infinity);
          ++counters_.poisoned_advertisements;
        }
        continue;  // plain split horizon: omit
      }
      update.routes.emplace_back(prefix, entry.metric);
    }
    if (update.routes.empty()) continue;
    counters_.routes_advertised += update.routes.size();
    ++counters_.updates_sent;
    transport_.send(self_, peer, update);
    if (hooks_.on_update_sent) hooks_.on_update_sent(self_, peer, update);
  }
}

void DvSpeaker::start_periodic() {
  sim_.schedule_after(
      rng_.uniform_time(sim::SimTime::zero(), config_.periodic), [this] {
        send_full_table();
        start_periodic();
      });
}

void DvSpeaker::handle_session(net::NodeId peer, bool up) {
  if (up) {
    peers_.insert(peer);
    schedule_trigger();  // offer our table
    return;
  }
  peers_.erase(peer);
  for (auto& [prefix, entry] : table_) {
    if (entry.next_hop == peer && entry.metric < config_.infinity) {
      entry.metric = config_.infinity;
      after_change(prefix);
    }
  }
}

std::optional<int> DvSpeaker::metric(net::Prefix prefix) const {
  auto it = table_.find(prefix);
  if (it == table_.end() || it->second.metric >= config_.infinity) {
    return std::nullopt;
  }
  return it->second.metric;
}

std::optional<net::NodeId> DvSpeaker::next_hop(net::Prefix prefix) const {
  auto it = table_.find(prefix);
  if (it == table_.end() || it->second.metric >= config_.infinity ||
      it->second.next_hop == net::kInvalidNode) {
    return std::nullopt;
  }
  return it->second.next_hop;
}

void DvSpeaker::save_state(snap::Writer& w) const {
  snap::write_rng(w, rng_);
  w.u64(peers_.size());
  for (const net::NodeId peer : peers_) w.u32(peer);
  w.u64(originated_.size());
  for (const net::Prefix prefix : originated_) w.u32(prefix);
  w.u64(table_.size());
  for (const auto& [prefix, entry] : table_) {
    w.u32(prefix);
    w.i64(entry.metric);
    w.u32(entry.next_hop);
  }
  w.b(trigger_pending_);
  w.u64(counters_.updates_sent);
  w.u64(counters_.routes_advertised);
  w.u64(counters_.poisoned_advertisements);
  w.u64(counters_.route_changes);
}

void DvSpeaker::restore_state(snap::Reader& r) {
  snap::read_rng(r, rng_);
  peers_.clear();
  const std::uint64_t n_peers = r.u64();
  for (std::uint64_t i = 0; i < n_peers; ++i) peers_.insert(r.u32());
  originated_.clear();
  const std::uint64_t n_origins = r.u64();
  for (std::uint64_t i = 0; i < n_origins; ++i) originated_.insert(r.u32());
  table_.clear();
  const std::uint64_t n_routes = r.u64();
  for (std::uint64_t i = 0; i < n_routes; ++i) {
    const net::Prefix prefix = snap::read_prefix(r);
    Entry entry;
    entry.metric = static_cast<int>(r.i64());
    entry.next_hop = r.u32();
    table_.emplace(prefix, entry);
  }
  trigger_pending_ = r.b();
  counters_.updates_sent = r.u64();
  counters_.routes_advertised = r.u64();
  counters_.poisoned_advertisements = r.u64();
  counters_.route_changes = r.u64();
}

}  // namespace bgpsim::dv
