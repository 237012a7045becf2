// The Assertion enhancement [Pei et al., INFOCOM 2002].
//
// Assertion keeps the Adj-RIB-In *mutually consistent* using only locally
// available information:
//
//  - When peer u announces path(u,new): any stored route (from a different
//    peer) whose path traverses u but disagrees with path(u,new) about the
//    route u uses — i.e. its suffix starting at u differs from path(u,new)
//    — is provably obsolete and is removed.
//
//  - When peer u explicitly withdraws: u states it has no route, so any
//    stored route whose path traverses u relied on that route and is
//    removed. (This is why, in a Clique Tdown, the origin's withdrawal
//    immediately invalidates every (j 0) backup: they all traverse the
//    origin.)
//
//  - When the session to u drops, the only information gained is that the
//    local link died; u's own routes are not in question. The loss
//    withdraws exactly what u advertised (Adj-RIB-In drop_peer) and
//    Assertion prunes nothing else. A stored route from another peer that
//    transits u still describes u's forwarding state, which the lost link
//    does not change. Pruning it strands destinations that no peer will
//    re-announce: with several origins, a Tlong at the destination would
//    drop, at the link's other end, every route to the other origins that
//    transits the destination, and nothing announces them again.
//
// Removing these entries prevents a node from selecting an obsolete backup
// path — the loop-formation mechanism identified in §3 of the paper.
#pragma once

#include <cstddef>

#include "bgp/as_path.hpp"
#include "net/types.hpp"
#include "rib/local_ribs.hpp"

namespace bgpsim::bgp {

/// Apply the announce-side assertion to the announced prefix's Adj-RIB-In
/// column after storing path(u,new). Returns the number of entries removed.
std::size_t assert_on_announce(rib::PeerColumn& column, net::NodeId from_peer,
                               const AsPath& new_path);

/// Apply the withdraw-side assertion to the withdrawn prefix's column after
/// removing u's route on an explicit withdrawal. Returns the number of
/// entries removed.
std::size_t assert_on_withdraw(rib::PeerColumn& column, net::NodeId from_peer);

}  // namespace bgpsim::bgp
