// The dense structure-of-arrays RIB store shared by every speaker of one
// network.
//
// Layout (after BGPExtrapolator's LocalRibs.hpp): instead of per-speaker
// `unordered_map<prefix, ...>` tables, one LocalRibs holds two flat
// (speaker × prefix-id) planes —
//
//   best_ : the selected best path per (speaker, prefix); an empty AsPath
//           marks "no route" (an installed path always has >= 1 hop);
//   adj_  : the Adj-RIB-In column per (speaker, prefix): the most recent
//           route from each peer, kept as a compact vector sorted by peer
//           id (ascending-peer iteration matches the old std::map order,
//           which the decision process's tie-breaking depends on).
//
// Prefix values are interned to dense ids by the embedded PrefixTable, so
// a multi-prefix scenario's whole table is two contiguous allocations and
// a batched decision pass walks one cache-friendly column block. Cells
// hold AsPath handles into the trial's bgp::PathArena, so moving a route
// between cells copies 8 bytes. The
// bgp::AdjRibIn / bgp::LocRib facades preserve the old per-speaker API on
// top of this store; single-prefix behavior is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/path_arena.hpp"
#include "net/types.hpp"
#include "rib/prefix_table.hpp"
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
  explicit LocalRibs(SpeakerId speakers = 1);

  [[nodiscard]] PrefixTable& prefix_table() { return table_; }
  [[nodiscard]] const PrefixTable& prefix_table() const { return table_; }

  /// Grow the store to at least `count` speaker rows.
  void ensure_speakers(SpeakerId count);
  [[nodiscard]] SpeakerId speaker_count() const { return speakers_; }

  // ---- best-route plane (Loc-RIB) ---------------------------------------

  /// Install the selected path (nullopt = disengage). Returns true if the
  /// stored value changed (same semantics as the old bgp::LocRib::set).
  bool set_best(SpeakerId s, net::Prefix prefix,
                std::optional<bgp::AsPath> path);

  /// The stored best path, or nullptr when the speaker has no route.
  [[nodiscard]] const bgp::AsPath* best(SpeakerId s, net::Prefix prefix) const;

  /// Prefixes the speaker currently has a best route for, ascending.
  [[nodiscard]] std::vector<net::Prefix> best_prefixes(SpeakerId s) const;

  void save_best(SpeakerId s, snap::Writer& w) const;
  /// Restored paths land in `paths`.
  void restore_best(SpeakerId s, snap::Reader& r, bgp::PathArena& paths);

  // ---- Adj-RIB-In plane -------------------------------------------------

  void adj_set(SpeakerId s, net::Prefix prefix, net::NodeId peer,
               bgp::AsPath path);
  bool adj_withdraw(SpeakerId s, net::Prefix prefix, net::NodeId peer);
  std::vector<net::Prefix> adj_drop_peer(SpeakerId s, net::NodeId peer);
  [[nodiscard]] const bgp::AsPath* adj_get(SpeakerId s, net::Prefix prefix,
                                           net::NodeId peer) const;
  /// The whole column, sorted by peer ascending (empty if none).
  [[nodiscard]] const PeerColumn& adj_entries(SpeakerId s,
                                              net::Prefix prefix) const;
  /// Prefixes with at least one Adj-RIB-In entry, ascending.
  [[nodiscard]] std::vector<net::Prefix> adj_prefixes(SpeakerId s) const;

  /// Erase column entries satisfying `pred(peer, path)`; returns the count
  /// erased (the Assertion enhancement's primitive).
  template <typename Pred>
  std::size_t adj_erase_if(SpeakerId s, net::Prefix prefix, Pred pred) {
    const PrefixId id = table_.id_of(prefix);
    if (id == kInvalidPrefixId || id >= stride_) return 0;
    PeerColumn& column = adj_[slot(s, id)];
    std::size_t erased = 0;
    for (auto it = column.begin(); it != column.end();) {
      if (pred(it->first, it->second)) {
        it = column.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  void save_adj(SpeakerId s, snap::Writer& w) const;
  /// Restored paths land in `paths`.
  void restore_adj(SpeakerId s, snap::Reader& r, bgp::PathArena& paths);

  // ---- whole-store codec ------------------------------------------------

  /// Serialize the shared prefix table once (snapshot v4 writes it ahead
  /// of the per-node sections instead of repeating prefix keys per row).
  void save_table(snap::Writer& w) const { table_.save_state(w); }

  /// Restore the shared table; resets both planes (the per-speaker
  /// restore_* calls that follow reload every row).
  void restore_table(snap::Reader& r);

 private:
  [[nodiscard]] std::size_t slot(SpeakerId s, PrefixId id) const {
    return static_cast<std::size_t>(s) * stride_ + id;
  }
  /// Intern `prefix` and make sure both planes have a column for it.
  PrefixId ensure_column(net::Prefix prefix);
  void regrow(std::uint32_t new_stride);

  PrefixTable table_;
  SpeakerId speakers_ = 0;
  std::uint32_t stride_ = 0;           // prefix-id capacity per speaker row
  std::vector<bgp::AsPath> best_;      // speakers_ × stride_; empty = none
  std::vector<PeerColumn> adj_;        // speakers_ × stride_

  static const PeerColumn kEmptyColumn;
};

}  // namespace bgpsim::rib
