// Routing Information Bases.
//
// Since the multi-prefix refactor these are thin per-speaker facades over
// the dense rib::LocalRibs structure-of-arrays store (one flat
// (speaker × prefix-id) block per network instead of per-speaker hash
// maps; see rib/local_ribs.hpp). A facade either binds to the network's
// shared store (BgpNetwork wires every Speaker to one LocalRibs) or, when
// default-constructed, owns a private single-speaker store so standalone
// unit-test use keeps working unchanged. The public semantics — including
// ascending-peer iteration, the set()-returns-changed contract, and the
// per-speaker checkpoint byte layout — are those of the old map-backed
// classes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/path_arena.hpp"
#include "net/types.hpp"
#include "rib/local_ribs.hpp"

namespace bgpsim::bgp {

/// Adj-RIB-In: the most recent route learned from each neighbor, per prefix.
///
/// Entries persist until replaced, withdrawn, or the peer session drops —
/// which is exactly why obsolete entries exist to be picked as backup paths
/// (the root cause of the paper's transient loops). The Assertion
/// enhancement additionally erases entries it proves obsolete.
class AdjRibIn {
 public:
  /// Bind to `store` row `row`; with store == nullptr (the default), own a
  /// private single-speaker store.
  explicit AdjRibIn(rib::LocalRibs* store = nullptr, rib::SpeakerId row = 0);

  /// Record an announcement from `peer`. Replaces any previous entry.
  void set(net::Prefix prefix, net::NodeId peer, AsPath path) {
    store_->adj_set(row_, prefix, peer, path);
  }

  /// Remove `peer`'s route for `prefix` (withdrawal or poison-reverse
  /// discard). Returns true if an entry existed.
  bool withdraw(net::Prefix prefix, net::NodeId peer) {
    return store_->adj_withdraw(row_, prefix, peer);
  }

  /// Remove everything learned from `peer` (session down). Returns the
  /// prefixes that lost an entry, ascending.
  std::vector<net::Prefix> drop_peer(net::NodeId peer) {
    return store_->adj_drop_peer(row_, peer);
  }

  /// The stored route from `peer` for `prefix`, if any.
  [[nodiscard]] const AsPath* get(net::Prefix prefix, net::NodeId peer) const {
    return store_->adj_get(row_, prefix, peer);
  }

  /// All (peer, path) entries for `prefix`, in ascending peer order
  /// (deterministic iteration keeps runs reproducible).
  [[nodiscard]] const rib::PeerColumn& entries(net::Prefix prefix) const {
    return store_->adj_entries(row_, prefix);
  }

  /// All prefixes with at least one entry, ascending.
  [[nodiscard]] std::vector<net::Prefix> prefixes() const {
    return store_->adj_prefixes(row_);
  }

  /// Checkpoint codec (prefixes sorted; peers already deterministic).
  /// Restored paths land in `paths`.
  void save_state(snap::Writer& w) const { store_->save_adj(row_, w); }
  void restore_state(snap::Reader& r, PathArena& paths) {
    store_->restore_adj(row_, r, paths);
  }

  /// Erase entries for `prefix` that satisfy `pred(peer, path)`; returns
  /// the number erased. Used by the Assertion enhancement.
  template <typename Pred>
  std::size_t erase_if(net::Prefix prefix, Pred pred) {
    return store_->adj_erase_if(row_, prefix, pred);
  }

 private:
  std::unique_ptr<rib::LocalRibs> owned_;  // engaged when unbound
  rib::LocalRibs* store_;
  rib::SpeakerId row_;
};

/// Loc-RIB: the node's currently selected best path per prefix. A node's
/// own path includes itself at the front (paper notation).
class LocRib {
 public:
  /// Bind to `store` row `row`; with store == nullptr (the default), own a
  /// private single-speaker store.
  explicit LocRib(rib::LocalRibs* store = nullptr, rib::SpeakerId row = 0);

  /// Install the selected path (or disengage on nullopt). Returns true if
  /// the stored value changed.
  bool set(net::Prefix prefix, std::optional<AsPath> path) {
    return store_->set_best(row_, prefix, path);
  }

  [[nodiscard]] const AsPath* get(net::Prefix prefix) const {
    return store_->best(row_, prefix);
  }

  [[nodiscard]] std::vector<net::Prefix> prefixes() const {
    return store_->best_prefixes(row_);
  }

  /// Checkpoint codec (prefixes sorted for deterministic bytes). Restored
  /// paths land in `paths`.
  void save_state(snap::Writer& w) const { store_->save_best(row_, w); }
  void restore_state(snap::Reader& r, PathArena& paths) {
    store_->restore_best(row_, r, paths);
  }

 private:
  std::unique_ptr<rib::LocalRibs> owned_;  // engaged when unbound
  rib::LocalRibs* store_;
  rib::SpeakerId row_;
};

}  // namespace bgpsim::bgp
