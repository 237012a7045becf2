#include "rib/local_ribs.hpp"

#include <algorithm>

namespace bgpsim::rib {

const PeerColumn LocalRibs::kEmptyColumn{};

LocalRibs::LocalRibs(SpeakerId speakers) { ensure_speakers(speakers); }

void LocalRibs::ensure_speakers(SpeakerId count) {
  if (count <= speakers_) return;
  best_.resize(static_cast<std::size_t>(count) * stride_);
  adj_.resize(static_cast<std::size_t>(count) * stride_);
  speakers_ = count;
}

PrefixId LocalRibs::ensure_column(net::Prefix prefix) {
  const PrefixId id = table_.intern(prefix);
  if (id >= stride_) {
    regrow(std::max<std::uint32_t>({4, stride_ * 2, id + 1}));
  }
  return id;
}

void LocalRibs::regrow(std::uint32_t new_stride) {
  std::vector<bgp::AsPath> best(static_cast<std::size_t>(speakers_) *
                                new_stride);
  std::vector<PeerColumn> adj(static_cast<std::size_t>(speakers_) *
                              new_stride);
  for (SpeakerId s = 0; s < speakers_; ++s) {
    for (std::uint32_t id = 0; id < stride_; ++id) {
      best[static_cast<std::size_t>(s) * new_stride + id] = best_[slot(s, id)];
      adj[static_cast<std::size_t>(s) * new_stride + id] =
          std::move(adj_[slot(s, id)]);
    }
  }
  best_ = std::move(best);
  adj_ = std::move(adj);
  stride_ = new_stride;
}

// ---- best-route plane ----------------------------------------------------

bool LocalRibs::set_best(SpeakerId s, net::Prefix prefix,
                         std::optional<bgp::AsPath> path) {
  const PrefixId id = ensure_column(prefix);
  bgp::AsPath& cell = best_[slot(s, id)];
  // An installed path is never empty, so an empty cell equals nullopt.
  const bgp::AsPath next = path.value_or(bgp::AsPath{});
  if (cell == next) return false;
  cell = next;
  return true;
}

const bgp::AsPath* LocalRibs::best(SpeakerId s, net::Prefix prefix) const {
  const PrefixId id = table_.id_of(prefix);
  if (id == kInvalidPrefixId || id >= stride_) return nullptr;
  const bgp::AsPath& cell = best_[slot(s, id)];
  return cell.empty() ? nullptr : &cell;
}

std::vector<net::Prefix> LocalRibs::best_prefixes(SpeakerId s) const {
  std::vector<net::Prefix> out;
  const std::uint32_t columns =
      std::min<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  for (std::uint32_t id = 0; id < columns; ++id) {
    if (!best_[slot(s, id)].empty()) out.push_back(table_.prefix_of(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void LocalRibs::save_best(SpeakerId s, snap::Writer& w) const {
  const std::vector<net::Prefix> keys = best_prefixes(s);
  w.u64(keys.size());
  for (const net::Prefix prefix : keys) {
    w.u32(prefix);
    best(s, prefix)->save(w);
  }
}

void LocalRibs::restore_best(SpeakerId s, snap::Reader& r,
                             bgp::PathArena& paths) {
  const std::uint32_t columns =
      std::min<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  for (std::uint32_t id = 0; id < columns; ++id) {
    best_[slot(s, id)] = bgp::AsPath{};
  }
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r);
    best_[slot(s, ensure_column(prefix))] = paths.load(r);
  }
}

// ---- Adj-RIB-In plane ----------------------------------------------------

void LocalRibs::adj_set(SpeakerId s, net::Prefix prefix, net::NodeId peer,
                        bgp::AsPath path) {
  PeerColumn& column = adj_[slot(s, ensure_column(prefix))];
  auto it = std::lower_bound(
      column.begin(), column.end(), peer,
      [](const PeerRoute& e, net::NodeId p) { return e.first < p; });
  if (it != column.end() && it->first == peer) {
    it->second = path;
  } else {
    column.insert(it, PeerRoute{peer, path});
  }
}

bool LocalRibs::adj_withdraw(SpeakerId s, net::Prefix prefix,
                             net::NodeId peer) {
  const PrefixId id = table_.id_of(prefix);
  if (id == kInvalidPrefixId || id >= stride_) return false;
  PeerColumn& column = adj_[slot(s, id)];
  auto it = std::lower_bound(
      column.begin(), column.end(), peer,
      [](const PeerRoute& e, net::NodeId p) { return e.first < p; });
  if (it == column.end() || it->first != peer) return false;
  column.erase(it);
  return true;
}

std::vector<net::Prefix> LocalRibs::adj_drop_peer(SpeakerId s,
                                                  net::NodeId peer) {
  std::vector<net::Prefix> affected;
  const std::uint32_t columns =
      std::min<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  for (std::uint32_t id = 0; id < columns; ++id) {
    if (adj_withdraw(s, table_.prefix_of(id), peer)) {
      affected.push_back(table_.prefix_of(id));
    }
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

const bgp::AsPath* LocalRibs::adj_get(SpeakerId s, net::Prefix prefix,
                                      net::NodeId peer) const {
  const PrefixId id = table_.id_of(prefix);
  if (id == kInvalidPrefixId || id >= stride_) return nullptr;
  const PeerColumn& column = adj_[slot(s, id)];
  auto it = std::lower_bound(
      column.begin(), column.end(), peer,
      [](const PeerRoute& e, net::NodeId p) { return e.first < p; });
  if (it == column.end() || it->first != peer) return nullptr;
  return &it->second;
}

const PeerColumn& LocalRibs::adj_entries(SpeakerId s,
                                         net::Prefix prefix) const {
  const PrefixId id = table_.id_of(prefix);
  if (id == kInvalidPrefixId || id >= stride_) return kEmptyColumn;
  return adj_[slot(s, id)];
}

std::vector<net::Prefix> LocalRibs::adj_prefixes(SpeakerId s) const {
  std::vector<net::Prefix> out;
  const std::uint32_t columns =
      std::min<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  for (std::uint32_t id = 0; id < columns; ++id) {
    if (!adj_[slot(s, id)].empty()) out.push_back(table_.prefix_of(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void LocalRibs::save_adj(SpeakerId s, snap::Writer& w) const {
  const std::vector<net::Prefix> keys = adj_prefixes(s);
  w.u64(keys.size());
  for (const net::Prefix prefix : keys) {
    const PeerColumn& column = adj_entries(s, prefix);
    w.u32(prefix);
    w.u64(column.size());
    for (const auto& [peer, path] : column) {
      w.u32(peer);
      path.save(w);
    }
  }
}

void LocalRibs::restore_adj(SpeakerId s, snap::Reader& r,
                            bgp::PathArena& paths) {
  const std::uint32_t columns =
      std::min<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  for (std::uint32_t id = 0; id < columns; ++id) {
    adj_[slot(s, id)].clear();
  }
  const std::uint64_t prefixes = r.u64();
  for (std::uint64_t i = 0; i < prefixes; ++i) {
    const net::Prefix prefix = snap::read_prefix(r);
    PeerColumn& column = adj_[slot(s, ensure_column(prefix))];
    // Each entry is a peer and an AS path's hop count, at least.
    const std::uint64_t entries = r.count(4 + 8);
    column.clear();
    column.reserve(entries);
    for (std::uint64_t j = 0; j < entries; ++j) {
      const net::NodeId peer = r.u32();
      // Saved sorted by peer ascending; loading in order keeps it sorted.
      column.emplace_back(peer, paths.load(r));
    }
  }
}

// ---- whole-store codec ---------------------------------------------------

void LocalRibs::restore_table(snap::Reader& r) {
  table_.restore_state(r);
  // Reset both planes: prefix ids may have been reassigned, so every live
  // column is stale. The per-speaker restore_* calls that follow a table
  // restore reload every row.
  const std::uint32_t new_stride =
      std::max<std::uint32_t>(stride_, static_cast<std::uint32_t>(table_.size()));
  stride_ = new_stride;
  best_.assign(static_cast<std::size_t>(speakers_) * stride_, bgp::AsPath{});
  adj_.assign(static_cast<std::size_t>(speakers_) * stride_, PeerColumn{});
}

}  // namespace bgpsim::rib
