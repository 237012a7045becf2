// The dense structure-of-arrays RIB store shared by every speaker of one
// network.
//
// Layout (after BGPExtrapolator's LocalRibs.hpp): instead of per-speaker
// `unordered_map<prefix, ...>` tables, one LocalRibs holds two flat
// (speaker × prefix) planes, sized once at construction for the network's
// S speakers and P prefixes, with slot `s * P + prefix` —
//
//   best_ : the selected best path per (speaker, prefix); an empty AsPath
//           marks "no route" (an installed path always has >= 1 hop);
//   adj_  : the Adj-RIB-In column per (speaker, prefix): the most recent
//           route from each peer, kept as a compact vector sorted by peer
//           id (ascending-peer iteration is the order the decision
//           process's tie-breaking depends on).
//
// Prefix values are dense (0..P-1), so they index the planes directly, as
// they index every other per-prefix store (fwd::Fib, bgp::PeerPlane, the
// data plane's destination table). A multi-prefix scenario's whole table
// is two contiguous allocations, walked in ascending prefix order, and a
// batched decision pass reads one cache-friendly column block. Cells hold
// AsPath handles into the trial's bgp::PathArena, so moving a route
// between cells copies 8 bytes. A speaker reads and writes its own row.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/path_arena.hpp"
#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::rib {

/// Row index of one speaker in the store (== its NodeId in BgpNetwork).
using SpeakerId = std::uint32_t;

/// One Adj-RIB-In column entry: the route `first` advertised.
using PeerRoute = std::pair<net::NodeId, bgp::AsPath>;

/// One (speaker, prefix) Adj-RIB-In column, sorted by peer ascending.
using PeerColumn = std::vector<PeerRoute>;

class LocalRibs {
 public:
  /// Throws std::invalid_argument unless 1 <= prefixes <= net::kMaxPrefixes.
  LocalRibs(SpeakerId speakers, std::uint32_t prefixes);

  /// P: every prefix value the store holds is below it.
  [[nodiscard]] std::uint32_t prefix_count() const { return prefixes_; }

  // ---- best-route plane (Loc-RIB) ---------------------------------------

  /// Install the selected path (nullopt = disengage). Returns true if the
  /// stored value changed.
  bool set_best(SpeakerId s, net::Prefix prefix,
                std::optional<bgp::AsPath> path);

  /// The stored best path, or nullptr when the speaker has no route.
  [[nodiscard]] const bgp::AsPath* best(SpeakerId s, net::Prefix prefix) const {
    const bgp::AsPath& cell = best_[slot(s, prefix)];
    return cell.empty() ? nullptr : &cell;
  }

  /// Prefixes the speaker currently has a best route for, ascending.
  [[nodiscard]] std::vector<net::Prefix> best_prefixes(SpeakerId s) const;

  /// Checkpoint codec: the count of routed prefixes, then each as (prefix,
  /// path ref), ascending.
  void save_best(SpeakerId s, snap::Writer& w) const;
  /// Path refs resolve in `paths`, which the arena section restored.
  /// Rejects a prefix at or above P and an entry with the empty path.
  void restore_best(SpeakerId s, snap::Reader& r,
                    const bgp::PathArena& paths);

  // ---- Adj-RIB-In plane -------------------------------------------------

  /// The whole column, sorted by peer ascending. Callers that erase from
  /// it (the Assertion enhancement) keep it sorted.
  [[nodiscard]] PeerColumn& adj_entries(SpeakerId s, net::Prefix prefix) {
    return adj_[slot(s, prefix)];
  }
  [[nodiscard]] const PeerColumn& adj_entries(SpeakerId s,
                                              net::Prefix prefix) const {
    return adj_[slot(s, prefix)];
  }

  void adj_set(SpeakerId s, net::Prefix prefix, net::NodeId peer,
               bgp::AsPath path);
  bool adj_withdraw(SpeakerId s, net::Prefix prefix, net::NodeId peer);
  /// Remove every entry from `peer` (session down); returns the prefixes
  /// that lost one, ascending.
  std::vector<net::Prefix> adj_drop_peer(SpeakerId s, net::NodeId peer);
  [[nodiscard]] const bgp::AsPath* adj_get(SpeakerId s, net::Prefix prefix,
                                           net::NodeId peer) const;
  /// Prefixes with at least one Adj-RIB-In entry, ascending.
  [[nodiscard]] std::vector<net::Prefix> adj_prefixes(SpeakerId s) const;

  /// Checkpoint codec: the count of prefixes with a column, then each as
  /// its prefix, entry count and (peer, path ref) entries, ascending.
  void save_adj(SpeakerId s, snap::Writer& w) const;
  /// Path refs resolve in `paths`. `peers` is the speaker's session set,
  /// ascending: a column entry from any other peer, a column whose peers
  /// are not strictly ascending, or a prefix at or above P is rejected.
  void restore_adj(SpeakerId s, snap::Reader& r, const bgp::PathArena& paths,
                   std::span<const net::NodeId> peers);

 private:
  [[nodiscard]] std::size_t slot(SpeakerId s, net::Prefix prefix) const {
    assert(s < speakers_ && prefix < prefixes_);
    return static_cast<std::size_t>(s) * prefixes_ + prefix;
  }

  SpeakerId speakers_;
  std::uint32_t prefixes_;
  std::vector<bgp::AsPath> best_;  // speakers_ × prefixes_; empty = none
  std::vector<PeerColumn> adj_;    // speakers_ × prefixes_
};

}  // namespace bgpsim::rib
