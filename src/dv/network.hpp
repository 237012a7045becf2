// Assembles a distance-vector network over a topology.
#pragma once

#include "dv/config.hpp"
#include "dv/speaker.hpp"
#include "fwd/protocol_network.hpp"
#include "snap/codec.hpp"

namespace bgpsim::dv {

/// One DvSpeaker per node on the shared substrate (fwd::ProtocolNetwork).
class DvNetwork : public fwd::ProtocolNetwork<DvSpeaker> {
 public:
  DvNetwork(sim::Simulator& simulator, net::Topology& topology,
            const DvConfig& config, const net::ProcessingDelay& processing,
            const sim::Rng& root_rng);

  /// Checkpoint codec (fwd::ProtocolNetwork's layout, no header).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);
};

/// The snapshot codec of one queued update. A route count the remaining
/// bytes cannot hold ends in snap::FormatError.
void save_dv_update(snap::Writer& w, const DvUpdate& msg);
[[nodiscard]] DvUpdate load_dv_update(snap::Reader& r);

}  // namespace bgpsim::dv
