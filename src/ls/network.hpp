// Assembles a link-state network over a topology.
#pragma once

#include "fwd/protocol_network.hpp"
#include "ls/config.hpp"
#include "ls/speaker.hpp"
#include "snap/codec.hpp"

namespace bgpsim::ls {

/// One LsSpeaker per node on the shared substrate (fwd::ProtocolNetwork).
class LsNetwork : public fwd::ProtocolNetwork<LsSpeaker> {
 public:
  LsNetwork(sim::Simulator& simulator, net::Topology& topology,
            const LsConfig& config, const net::ProcessingDelay& processing,
            const sim::Rng& root_rng);

  /// Bring every router up (initial LSA origination) — call once at t=0.
  void start_all() {
    for (net::NodeId n = 0; n < size(); ++n) speaker(n).start();
  }

  /// Checkpoint codec (fwd::ProtocolNetwork's layout, no header).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);
};

}  // namespace bgpsim::ls
