// Assembles a full BGP network over a topology.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/speaker.hpp"
#include "fwd/protocol_network.hpp"
#include "rib/local_ribs.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {

/// One speaker per topology node on the shared substrate
/// (fwd::ProtocolNetwork), all sharing one RIB store. This is the object
/// the experiment runner manipulates. Every path the network builds,
/// receives or restores lives in `paths`, which must outlive the network.
/// The network routes prefixes 0..prefixes-1; with more than one, speakers
/// batch their sends per peer.
class BgpNetwork : public fwd::ProtocolNetwork<Speaker> {
 public:
  BgpNetwork(sim::Simulator& simulator, net::Topology& topology,
             const BgpConfig& config, const net::ProcessingDelay& processing,
             const sim::Rng& root_rng, PathArena& paths,
             std::uint32_t prefixes);

  /// The origin announces several prefixes at once (multi-prefix
  /// scenarios; advertisements go out batched per peer).
  void originate_batch(net::NodeId origin,
                       const std::vector<net::Prefix>& prefixes) {
    speaker(origin).originate_batch(prefixes);
  }

  /// Correlated Tdown: the origin withdraws every listed prefix in one
  /// event (withdrawals go out batched per peer).
  void inject_tdown_batch(net::NodeId origin,
                          const std::vector<net::Prefix>& prefixes) {
    speaker(origin).withdraw_origin_batch(prefixes);
  }

  /// Sum of per-speaker counters across the network.
  [[nodiscard]] Speaker::Counters total_counters() const;

  /// Checkpoint codec: the path arena (PathArena::save) first, since RIB
  /// entries and queued updates name their paths by ref into it; then
  /// fwd::ProtocolNetwork's layout with the prefix count as its header.
  /// Every prefix the restore reads must be below that count, and every
  /// path ref within the arena.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  PathArena& paths_;
  rib::LocalRibs ribs_;  // shared by every speaker
};

}  // namespace bgpsim::bgp
