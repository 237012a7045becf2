#include "dv/network.hpp"

namespace bgpsim::dv {

DvNetwork::DvNetwork(sim::Simulator& simulator, net::Topology& topology,
                     const DvConfig& config,
                     const net::ProcessingDelay& processing,
                     const sim::Rng& root_rng)
    : ProtocolNetwork{simulator, topology, processing, root_rng} {
  add_speakers(config, root_rng, "dv");
}

void save_dv_update(snap::Writer& w, const DvUpdate& msg) {
  w.u64(msg.routes.size());
  for (const auto& [prefix, metric] : msg.routes) {
    w.u32(prefix);
    w.i64(metric);
  }
}

DvUpdate load_dv_update(snap::Reader& r) {
  DvUpdate msg;
  const std::uint64_t n = r.count(4 + 8);  // a prefix and a metric each
  msg.routes.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r);
    msg.routes.emplace_back(prefix, static_cast<int>(r.i64()));
  }
  return msg;
}

void DvNetwork::save_state(snap::Writer& w) const {
  transport().save_state(w);
  save_nodes(w, [](snap::Writer& out, const net::Payload& payload) {
    save_dv_update(out, payload.get<DvUpdate>());
  });
}

void DvNetwork::restore_state(snap::Reader& r) {
  transport().restore_state(r);
  restore_nodes(
      r, [](snap::Reader& in) { return net::Payload{load_dv_update(in)}; },
      1);  // DV routes one prefix
}

}  // namespace bgpsim::dv
