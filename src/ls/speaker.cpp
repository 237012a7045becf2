#include "ls/speaker.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace bgpsim::ls {

LsSpeaker::LsSpeaker(net::NodeId self, LsConfig config,
                     sim::Simulator& simulator, net::Transport& transport,
                     fwd::Fib& fib, sim::Rng rng)
    : self_{self},
      config_{config},
      sim_{simulator},
      transport_{transport},
      fib_{fib},
      rng_{std::move(rng)} {}

void LsSpeaker::set_peers(const std::vector<net::NodeId>& peers) {
  peers_ = std::set<net::NodeId>(peers.begin(), peers.end());
}

void LsSpeaker::start() { originate_self_lsa(); }

void LsSpeaker::originate(net::Prefix prefix) {
  hosted_.insert(prefix);
  originate_self_lsa();
}

void LsSpeaker::withdraw_origin(net::Prefix prefix) {
  if (hosted_.erase(prefix) == 0) return;
  originate_self_lsa();
}

void LsSpeaker::originate_self_lsa() {
  Lsa lsa;
  lsa.origin = self_;
  lsa.seq = ++my_seq_;
  lsa.neighbors.assign(peers_.begin(), peers_.end());
  lsa.prefixes.assign(hosted_.begin(), hosted_.end());
  ++counters_.lsas_originated;
  lsdb_[self_] = lsa;
  schedule_spf();
  flood(lsa, std::nullopt);
}

void LsSpeaker::flood(const Lsa& lsa, std::optional<net::NodeId> except) {
  for (const net::NodeId peer : peers_) {
    if (except && peer == *except) continue;
    ++counters_.lsas_flooded;
    transport_.send(self_, peer, LsaMsg{lsa});
    if (hooks_.on_lsa_sent) hooks_.on_lsa_sent(self_, peer, lsa);
  }
}

void LsSpeaker::handle_lsa(net::NodeId from, const Lsa& lsa) {
  auto it = lsdb_.find(lsa.origin);
  if (it != lsdb_.end() && it->second.seq >= lsa.seq) {
    ++counters_.lsas_ignored;  // stale or duplicate: flood stops here
    return;
  }
  ++counters_.lsas_accepted;
  lsdb_[lsa.origin] = lsa;
  schedule_spf();
  flood(lsa, from);
}

void LsSpeaker::handle_session(net::NodeId peer, bool up) {
  if (up) {
    peers_.insert(peer);
    // Database exchange: offer everything we know to the new neighbor.
    for (const auto& [origin, lsa] : lsdb_) {
      ++counters_.lsas_flooded;
      transport_.send(self_, peer, LsaMsg{lsa});
      if (hooks_.on_lsa_sent) hooks_.on_lsa_sent(self_, peer, lsa);
    }
  } else {
    peers_.erase(peer);
  }
  originate_self_lsa();  // our adjacency set changed
}

void LsSpeaker::schedule_spf() {
  if (spf_pending_) return;  // LSDB changes batch into the pending run
  spf_pending_ = true;
  const sim::SimTime delay =
      config_.spf_delay_lo == config_.spf_delay_hi
          ? config_.spf_delay_lo
          : rng_.uniform_time(config_.spf_delay_lo, config_.spf_delay_hi);
  sim_.schedule_after(delay, [this] {
    spf_pending_ = false;
    run_spf();
  });
}

void LsSpeaker::run_spf() {
  ++counters_.spf_runs;

  // Two-way-checked adjacency from the LSDB: a link exists iff both
  // endpoints' LSAs list each other.
  const auto linked = [&](net::NodeId a, net::NodeId b) {
    auto ia = lsdb_.find(a);
    auto ib = lsdb_.find(b);
    if (ia == lsdb_.end() || ib == lsdb_.end()) return false;
    return std::ranges::binary_search(ia->second.neighbors, b) &&
           std::ranges::binary_search(ib->second.neighbors, a);
  };

  // BFS (unit costs) with smaller-id tie-break: parent pointers give the
  // first hop. Deterministic because neighbor lists are sorted.
  std::map<net::NodeId, net::NodeId> first_hop;  // node -> next hop from us
  std::map<net::NodeId, int> dist;
  std::deque<net::NodeId> frontier{self_};
  dist[self_] = 0;
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop_front();
    auto iu = lsdb_.find(u);
    if (iu == lsdb_.end()) continue;
    for (const net::NodeId v : iu->second.neighbors) {
      if (!linked(u, v)) continue;
      if (dist.contains(v)) continue;
      dist[v] = dist[u] + 1;
      first_hop[v] = (u == self_) ? v : first_hop[u];
      frontier.push_back(v);
    }
  }

  // Install routes for every hosted prefix in the LSDB. Where several
  // nodes host a prefix (anycast), the nearest (then smallest id) wins.
  std::map<net::Prefix, net::NodeId> best_host;
  for (const auto& [origin, lsa] : lsdb_) {
    if (origin != self_ && !dist.contains(origin)) continue;  // unreachable
    for (const net::Prefix prefix : lsa.prefixes) {
      auto it = best_host.find(prefix);
      if (it == best_host.end()) {
        best_host[prefix] = origin;
        continue;
      }
      const int d_new = origin == self_ ? 0 : dist[origin];
      const int d_old = it->second == self_ ? 0 : dist[it->second];
      if (d_new < d_old || (d_new == d_old && origin < it->second)) {
        it->second = origin;
      }
    }
  }

  // Track every prefix we have ever seen hosted so that routes to
  // withdrawn / unreachable prefixes get cleared, not just left behind.
  std::set<net::Prefix> seen;
  for (const auto& [origin, lsa] : lsdb_) {
    for (const net::Prefix p : lsa.prefixes) seen.insert(p);
  }
  for (const net::Prefix p : tracked_prefixes_) seen.insert(p);
  tracked_prefixes_ = seen;

  for (const net::Prefix prefix : seen) {
    auto host = best_host.find(prefix);
    std::optional<net::NodeId> nh;
    if (host != best_host.end()) {
      if (host->second == self_) {
        nh = std::nullopt;  // local delivery
      } else {
        nh = first_hop.at(host->second);
      }
    }
    const bool changed =
        nh ? fib_.set_next_hop(prefix, *nh) : fib_.clear_route(prefix);
    if (changed && hooks_.on_route_changed) {
      hooks_.on_route_changed(self_, prefix, nh);
    }
  }
}

const Lsa* LsSpeaker::lsdb_entry(net::NodeId origin) const {
  auto it = lsdb_.find(origin);
  return it == lsdb_.end() ? nullptr : &it->second;
}

void save_lsa(snap::Writer& w, const Lsa& lsa) {
  w.u32(lsa.origin);
  w.u64(lsa.seq);
  w.u64(lsa.neighbors.size());
  for (const net::NodeId n : lsa.neighbors) w.u32(n);
  w.u64(lsa.prefixes.size());
  for (const net::Prefix p : lsa.prefixes) w.u32(p);
}

Lsa load_lsa(snap::Reader& r) {
  Lsa lsa;
  lsa.origin = r.u32();
  lsa.seq = r.u64();
  const std::uint64_t n_nbrs = r.count(4);
  lsa.neighbors.reserve(static_cast<std::size_t>(n_nbrs));
  for (std::uint64_t i = 0; i < n_nbrs; ++i) lsa.neighbors.push_back(r.u32());
  const std::uint64_t n_prefixes = r.count(4);
  lsa.prefixes.reserve(static_cast<std::size_t>(n_prefixes));
  for (std::uint64_t i = 0; i < n_prefixes; ++i) {
    lsa.prefixes.push_back(snap::read_prefix(r));
  }
  return lsa;
}

void LsSpeaker::save_state(snap::Writer& w) const {
  snap::write_rng(w, rng_);
  w.u64(peers_.size());
  for (const net::NodeId peer : peers_) w.u32(peer);
  w.u64(hosted_.size());
  for (const net::Prefix prefix : hosted_) w.u32(prefix);
  w.u64(tracked_prefixes_.size());
  for (const net::Prefix prefix : tracked_prefixes_) w.u32(prefix);
  w.u64(lsdb_.size());
  for (const auto& [origin, lsa] : lsdb_) save_lsa(w, lsa);
  w.u64(my_seq_);
  w.b(spf_pending_);
  w.u64(counters_.lsas_originated);
  w.u64(counters_.lsas_flooded);
  w.u64(counters_.lsas_accepted);
  w.u64(counters_.lsas_ignored);
  w.u64(counters_.spf_runs);
}

void LsSpeaker::restore_state(snap::Reader& r) {
  snap::read_rng(r, rng_);
  peers_.clear();
  const std::uint64_t n_peers = r.u64();
  for (std::uint64_t i = 0; i < n_peers; ++i) peers_.insert(r.u32());
  hosted_.clear();
  const std::uint64_t n_hosted = r.u64();
  for (std::uint64_t i = 0; i < n_hosted; ++i) hosted_.insert(r.u32());
  tracked_prefixes_.clear();
  const std::uint64_t n_tracked = r.u64();
  for (std::uint64_t i = 0; i < n_tracked; ++i) {
    tracked_prefixes_.insert(snap::read_prefix(r));
  }
  lsdb_.clear();
  const std::uint64_t n_lsas = r.u64();
  for (std::uint64_t i = 0; i < n_lsas; ++i) {
    Lsa lsa = load_lsa(r);
    const net::NodeId origin = lsa.origin;
    lsdb_.emplace(origin, std::move(lsa));
  }
  my_seq_ = r.u64();
  spf_pending_ = r.b();
  counters_.lsas_originated = r.u64();
  counters_.lsas_flooded = r.u64();
  counters_.lsas_accepted = r.u64();
  counters_.lsas_ignored = r.u64();
  counters_.spf_runs = r.u64();
}

}  // namespace bgpsim::ls
