#include "rib/local_ribs.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bgpsim::rib {
namespace {

/// The first entry of `column` at or after `peer` (a PeerColumn, const or
/// not).
template <typename Column>
auto find_peer(Column& column, net::NodeId peer) {
  return std::lower_bound(
      column.begin(), column.end(), peer,
      [](const PeerRoute& e, net::NodeId p) { return e.first < p; });
}

}  // namespace

LocalRibs::LocalRibs(SpeakerId speakers, std::uint32_t prefixes)
    : speakers_{speakers}, prefixes_{prefixes} {
  if (prefixes == 0 || prefixes > net::kMaxPrefixes) {
    throw std::invalid_argument{"LocalRibs: prefix count " +
                                std::to_string(prefixes) +
                                " is outside 1.." +
                                std::to_string(net::kMaxPrefixes)};
  }
  best_.resize(static_cast<std::size_t>(speakers_) * prefixes_);
  adj_.resize(static_cast<std::size_t>(speakers_) * prefixes_);
}

// ---- best-route plane ----------------------------------------------------

bool LocalRibs::set_best(SpeakerId s, net::Prefix prefix,
                         std::optional<bgp::AsPath> path) {
  bgp::AsPath& cell = best_[slot(s, prefix)];
  // An installed path is never empty, so an empty cell equals nullopt.
  const bgp::AsPath next = path.value_or(bgp::AsPath{});
  if (cell == next) return false;
  cell = next;
  return true;
}

std::vector<net::Prefix> LocalRibs::best_prefixes(SpeakerId s) const {
  std::vector<net::Prefix> out;
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    if (!best_[slot(s, prefix)].empty()) out.push_back(prefix);
  }
  return out;
}

void LocalRibs::save_best(SpeakerId s, snap::Writer& w) const {
  const std::size_t count_at = w.u64_slot();
  std::uint64_t count = 0;
  const bgp::AsPath* row = &best_[slot(s, 0)];
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    if (row[prefix].empty()) continue;
    w.u32(prefix);
    row[prefix].save(w);
    ++count;
  }
  w.patch_u64(count_at, count);
}

void LocalRibs::restore_best(SpeakerId s, snap::Reader& r,
                             const bgp::PathArena& paths) {
  std::fill_n(best_.begin() + static_cast<std::ptrdiff_t>(slot(s, 0)),
              prefixes_, bgp::AsPath{});
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r, prefixes_);
    const bgp::AsPath path = paths.load(r);
    if (path.empty()) {
      throw snap::FormatError{"Loc-RIB entry for prefix " +
                              std::to_string(prefix) + " holds no path"};
    }
    best_[slot(s, prefix)] = path;
  }
}

// ---- Adj-RIB-In plane ----------------------------------------------------

void LocalRibs::adj_set(SpeakerId s, net::Prefix prefix, net::NodeId peer,
                        bgp::AsPath path) {
  PeerColumn& column = adj_[slot(s, prefix)];
  auto it = find_peer(column, peer);
  if (it != column.end() && it->first == peer) {
    it->second = path;
  } else {
    column.insert(it, PeerRoute{peer, path});
  }
}

bool LocalRibs::adj_withdraw(SpeakerId s, net::Prefix prefix,
                             net::NodeId peer) {
  PeerColumn& column = adj_[slot(s, prefix)];
  auto it = find_peer(column, peer);
  if (it == column.end() || it->first != peer) return false;
  column.erase(it);
  return true;
}

std::vector<net::Prefix> LocalRibs::adj_drop_peer(SpeakerId s,
                                                  net::NodeId peer) {
  std::vector<net::Prefix> affected;
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    if (adj_withdraw(s, prefix, peer)) affected.push_back(prefix);
  }
  return affected;
}

const bgp::AsPath* LocalRibs::adj_get(SpeakerId s, net::Prefix prefix,
                                      net::NodeId peer) const {
  const PeerColumn& column = adj_[slot(s, prefix)];
  auto it = find_peer(column, peer);
  if (it == column.end() || it->first != peer) return nullptr;
  return &it->second;
}

std::vector<net::Prefix> LocalRibs::adj_prefixes(SpeakerId s) const {
  std::vector<net::Prefix> out;
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    if (!adj_[slot(s, prefix)].empty()) out.push_back(prefix);
  }
  return out;
}

void LocalRibs::save_adj(SpeakerId s, snap::Writer& w) const {
  const std::size_t count_at = w.u64_slot();
  std::uint64_t count = 0;
  const PeerColumn* row = &adj_[slot(s, 0)];
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    const PeerColumn& column = row[prefix];
    if (column.empty()) continue;
    w.u32(prefix);
    w.u64(column.size());
    for (const auto& [peer, path] : column) {
      w.u32(peer);
      path.save(w);
    }
    ++count;
  }
  w.patch_u64(count_at, count);
}

void LocalRibs::restore_adj(SpeakerId s, snap::Reader& r,
                            const bgp::PathArena& paths,
                            std::span<const net::NodeId> peers) {
  for (net::Prefix prefix = 0; prefix < prefixes_; ++prefix) {
    adj_[slot(s, prefix)].clear();
  }
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r, prefixes_);
    PeerColumn& column = adj_[slot(s, prefix)];
    // Each entry is a peer and a path ref.
    const std::uint64_t entries = r.count(4 + 4);
    column.clear();
    column.reserve(entries);
    for (std::uint64_t j = 0; j < entries; ++j) {
      const net::NodeId peer = r.u32();
      if (!std::binary_search(peers.begin(), peers.end(), peer)) {
        throw snap::FormatError{"Adj-RIB-In entry from " +
                                std::to_string(peer) +
                                ", which is not a session peer"};
      }
      // Every later lookup binary-searches the column.
      if (!column.empty() && column.back().first >= peer) {
        throw snap::FormatError{"Adj-RIB-In column for prefix " +
                                std::to_string(prefix) +
                                " is not in ascending peer order"};
      }
      column.emplace_back(peer, paths.load(r));
    }
  }
}

}  // namespace bgpsim::rib
