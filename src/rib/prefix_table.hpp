// Dense prefix-id interning for the SoA RIB store.
//
// A scenario's prefix set is small and known up front (the paper's single
// destination, or a full-table workload's 1..4096 prefixes), so routes can
// live in flat (speaker × prefix-id) arrays instead of per-speaker hash
// maps — the layout BGPExtrapolator uses to propagate a whole routing
// table at once. PrefixTable is the id side of that layout: it interns
// net::Prefix values into dense PrefixIds (insertion order) and records
// each prefix's origin AS for per-prefix oracle checks and metrics lanes.
//
// Prefix values are themselves dense (below net::kMaxPrefixes), so the
// prefix -> id direction is a vector indexed by the value: id_of() on the
// Loc-RIB and Adj-RIB-In hot path is one bounds check and one load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::rib {

/// Dense index of an interned prefix (0..size()-1, insertion order).
using PrefixId = std::uint32_t;

inline constexpr PrefixId kInvalidPrefixId = 0xFFFFFFFFu;

class PrefixTable {
 public:
  /// Intern `prefix`, returning its dense id (existing id if present).
  /// Throws std::out_of_range at or above net::kMaxPrefixes.
  PrefixId intern(net::Prefix prefix);

  /// The dense id of `prefix`, or kInvalidPrefixId if never interned.
  [[nodiscard]] PrefixId id_of(net::Prefix prefix) const {
    return prefix < ids_.size() ? ids_[prefix] : kInvalidPrefixId;
  }

  /// The prefix behind a dense id (id must be < size()).
  [[nodiscard]] net::Prefix prefix_of(PrefixId id) const {
    return prefixes_[id];
  }

  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }

  /// Record (or update) the origin AS of `prefix`; interns it if needed.
  void set_origin(net::Prefix prefix, net::NodeId origin);

  /// The recorded origin AS of `prefix`, or net::kInvalidNode.
  [[nodiscard]] net::NodeId origin_of(net::Prefix prefix) const;

  /// All interned prefixes, in interning order.
  [[nodiscard]] const std::vector<net::Prefix>& prefixes() const {
    return prefixes_;
  }

  /// Checkpoint codec: prefixes + origins in interning order, so a restore
  /// reproduces the exact id assignment.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  std::vector<net::Prefix> prefixes_;  // id -> prefix
  std::vector<net::NodeId> origins_;   // id -> origin (kInvalidNode default)
  std::vector<PrefixId> ids_;  // prefix -> id (kInvalidPrefixId: none)
};

}  // namespace bgpsim::rib
