#include "ls/network.hpp"

namespace bgpsim::ls {

LsNetwork::LsNetwork(sim::Simulator& simulator, net::Topology& topology,
                     const LsConfig& config,
                     const net::ProcessingDelay& processing,
                     const sim::Rng& root_rng)
    : ProtocolNetwork{simulator, topology, processing, root_rng} {
  add_speakers(config, root_rng, "ls");
}

void LsNetwork::save_state(snap::Writer& w) const {
  transport().save_state(w);
  save_nodes(w, [](snap::Writer& out, const net::Payload& payload) {
    save_lsa(out, payload.get<LsaMsg>().lsa);
  });
}

void LsNetwork::restore_state(snap::Reader& r) {
  transport().restore_state(r);
  restore_nodes(
      r, [](snap::Reader& in) { return net::Payload{LsaMsg{load_lsa(in)}}; },
      1);  // LS routes one prefix
}

}  // namespace bgpsim::ls
