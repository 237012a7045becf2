// Fundamental identifier types for the network substrate.
#pragma once

#include <cstdint>
#include <limits>

namespace bgpsim::net {

/// An autonomous system / node identifier. The reproduced study models one
/// router per AS, so node == AS.
using NodeId = std::uint32_t;

/// An undirected link identifier (index into the topology's link table).
using LinkId = std::uint32_t;

/// A destination prefix identifier. The study uses a single destination
/// prefix per scenario; the protocol machinery is nonetheless keyed by
/// prefix so multi-destination scenarios work.
using Prefix = std::uint32_t;

/// Exclusive bound on prefix values. Per-prefix state (FIB entries, MRAI
/// timers, Adj-RIB-Out) lives in planes indexed by the prefix value, so a
/// scenario's prefixes are the small dense ints 0..P-1; decoders reject
/// values at or above this bound instead of sizing a plane for them.
inline constexpr Prefix kMaxPrefixes = Prefix{1} << 20;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kInvalidLink = std::numeric_limits<LinkId>::max();

}  // namespace bgpsim::net
