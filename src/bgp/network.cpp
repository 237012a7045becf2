#include "bgp/network.hpp"

#include <string>
#include <utility>

#include "bgp/messages.hpp"

namespace bgpsim::bgp {

BgpNetwork::BgpNetwork(sim::Simulator& simulator, net::Topology& topology,
                       const BgpConfig& config,
                       const net::ProcessingDelay& processing,
                       const sim::Rng& root_rng, PathArena& paths,
                       std::uint32_t prefixes)
    : ProtocolNetwork{simulator, topology, processing, root_rng},
      paths_{paths},
      ribs_{static_cast<rib::SpeakerId>(topology.node_count()), prefixes} {
  add_speakers(config, root_rng, "bgp", paths_, ribs_);
}

namespace {

void save_update_msg(snap::Writer& w, const UpdateMsg& msg) {
  w.u32(msg.prefix);
  w.b(msg.path.has_value());
  if (msg.path) msg.path->save(w);
}

UpdateMsg load_update_msg(snap::Reader& r, const PathArena& paths,
                          std::uint32_t prefixes) {
  UpdateMsg msg;
  msg.prefix = snap::read_prefix(r, prefixes);
  if (r.b()) msg.path = paths.load(r);
  return msg;
}

// In-queue payloads are tagged: 0 = a single UpdateMsg, 1 = a multi-prefix
// UpdateBatch (snapshot format v4; v3 had no tag byte).
void save_update_payload(snap::Writer& w, const net::Payload& payload) {
  if (payload.is<UpdateBatch>()) {
    const auto& batch = payload.get<UpdateBatch>();
    w.u8(1);
    w.u64(batch.updates.size());
    for (const UpdateMsg& msg : batch.updates) save_update_msg(w, msg);
  } else {
    w.u8(0);
    save_update_msg(w, payload.get<UpdateMsg>());
  }
}

net::Payload load_update_payload(snap::Reader& r, const PathArena& paths,
                                 std::uint32_t prefixes) {
  if (r.u8() != 0) {
    UpdateBatch batch;
    // Each update is a prefix and a has-path flag, at least.
    const std::uint64_t n = r.count(4 + 1);
    batch.updates.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      batch.updates.push_back(load_update_msg(r, paths, prefixes));
    }
    return net::Payload{std::move(batch)};
  }
  return net::Payload{load_update_msg(r, paths, prefixes)};
}

}  // namespace

void BgpNetwork::save_state(snap::Writer& w) const {
  paths_.save(w);
  transport().save_state(w);
  w.u64(ribs_.prefix_count());
  save_nodes(w, save_update_payload);
}

void BgpNetwork::restore_state(snap::Reader& r) {
  paths_.restore(r);
  transport().restore_state(r);
  const std::uint32_t prefixes = ribs_.prefix_count();
  if (const std::uint64_t saved = r.u64(); saved != prefixes) {
    throw snap::FormatError{"snapshot routes " + std::to_string(saved) +
                            " prefixes; this network routes " +
                            std::to_string(prefixes)};
  }
  restore_nodes(
      r,
      [this, prefixes](snap::Reader& in) {
        return load_update_payload(in, paths_, prefixes);
      },
      prefixes);
}

Speaker::Counters BgpNetwork::total_counters() const {
  Speaker::Counters total;
  for (net::NodeId n = 0; n < size(); ++n) {
    const auto& c = speaker(n).counters();
    total.announcements_sent += c.announcements_sent;
    total.withdrawals_sent += c.withdrawals_sent;
    total.updates_received += c.updates_received;
    total.poison_reverse_discards += c.poison_reverse_discards;
    total.assertion_removals += c.assertion_removals;
    total.ghost_flushes += c.ghost_flushes;
    total.ssld_conversions += c.ssld_conversions;
    total.best_path_changes += c.best_path_changes;
    total.caution_holds += c.caution_holds;
  }
  return total;
}

}  // namespace bgpsim::bgp
