// The BGP decision process used by the study.
//
// Policy: shortest AS-path wins; ties break toward the smaller next-hop
// node id (the paper: "the smaller node ID is used for tie-breaking between
// equal length paths"), then lexicographically on the full path so the
// order is total and runs are deterministic.
#pragma once

#include <optional>

#include "bgp/as_path.hpp"
#include "net/relationships.hpp"
#include "net/types.hpp"
#include "rib/local_ribs.hpp"

namespace bgpsim::bgp {

/// True if candidate `a` is preferred over `b`. Both are *neighbor* paths
/// as advertised (first hop = the neighbor).
[[nodiscard]] bool preferred(const AsPath& a, const AsPath& b);

/// Select the best usable route for `self` among one Adj-RIB-In column
/// (one prefix's entries, peers ascending).
///
/// A route is usable iff its path does not contain `self` (path-based
/// poison reverse: a node never adopts a path through itself). Returns the
/// *selected neighbor path*; the caller's Loc-RIB path is its prepension
/// with `self`. Returns nullopt when no usable route exists.
///
/// With a non-null `policy`, Gao-Rexford local preference (customer >
/// peer > provider, by the advertising neighbor's relationship) is applied
/// before path length — the "prefer customer" import rule.
[[nodiscard]] std::optional<AsPath> select_best(
    const rib::PeerColumn& column, net::NodeId self,
    const net::RelationshipTable* policy = nullptr);

}  // namespace bgpsim::bgp
