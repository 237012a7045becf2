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
    : sim_{simulator},
      topo_{topology},
      paths_{paths},
      transport_{simulator, topology},
      ribs_{static_cast<rib::SpeakerId>(topology.node_count()), prefixes} {
  const std::size_t n = topo_.node_count();
  fibs_.resize(n);
  queues_.reserve(n);
  speakers_.reserve(n);

  for (net::NodeId node = 0; node < n; ++node) {
    queues_.push_back(std::make_unique<net::ProcessingQueue>(
        simulator, root_rng.child("proc", node), processing));
    speakers_.push_back(std::make_unique<Speaker>(
        node, config, simulator, transport_, fibs_[node],
        root_rng.child("bgp", node), paths_, ribs_));
    speakers_.back()->set_peers(topo_.up_neighbors(node));
  }

  // Wire: transport delivery -> receiver's processing queue -> speaker.
  transport_.set_delivery_handler([this](net::Envelope env) {
    queues_[env.to]->accept(std::move(env));
  });
  transport_.set_session_handler(
      [this](net::NodeId self, net::NodeId peer, bool up) {
        queues_[self]->accept_session_event(
            net::ProcessingQueue::SessionEvent{peer, up});
      });

  for (net::NodeId node = 0; node < n; ++node) {
    queues_[node]->set_message_handler([this, node](const net::Envelope& env) {
      if (env.payload.is<UpdateBatch>()) {
        speakers_[node]->handle_update_batch(env.from,
                                             env.payload.get<UpdateBatch>());
      } else {
        speakers_[node]->handle_update(env.from,
                                       env.payload.get<UpdateMsg>());
      }
    });
    queues_[node]->set_session_handler(
        [this, node](const net::ProcessingQueue::SessionEvent& ev) {
          speakers_[node]->handle_session(ev.peer, ev.up);
        });
  }
}

void BgpNetwork::set_hooks(const Speaker::Hooks& hooks) {
  for (auto& s : speakers_) s->set_hooks(hooks);
}

std::uint64_t BgpNetwork::control_messages_in_flight() const {
  return transport_.messages_sent() - transport_.messages_delivered() -
         transport_.messages_lost();
}

bool BgpNetwork::busy() const {
  if (control_messages_in_flight() > 0) return true;
  for (const auto& q : queues_) {
    if (q->busy() || q->backlog() > 0) return true;
  }
  for (const auto& s : speakers_) {
    if (!s->quiescent()) return true;
  }
  return false;
}

bool BgpNetwork::timers_running() const {
  for (const auto& s : speakers_) {
    if (s->timers_running()) return true;
  }
  return false;
}

namespace {

void save_update_msg(snap::Writer& w, const UpdateMsg& msg) {
  w.u32(msg.prefix);
  w.b(msg.path.has_value());
  if (msg.path) msg.path->save(w);
}

UpdateMsg load_update_msg(snap::Reader& r, PathArena& paths,
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

net::Payload load_update_payload(snap::Reader& r, PathArena& paths,
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
  transport_.save_state(w);
  // v7: the prefix count P, ahead of the per-node sections whose prefixes
  // it bounds.
  w.u64(ribs_.prefix_count());
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->save_state(w, save_update_payload);
    speakers_[node]->save_state(w);
    fibs_[node].save_state(w);
  }
}

void BgpNetwork::restore_state(snap::Reader& r) {
  transport_.restore_state(r);
  const std::uint32_t prefixes = ribs_.prefix_count();
  if (const std::uint64_t saved = r.u64(); saved != prefixes) {
    throw snap::FormatError{"snapshot routes " + std::to_string(saved) +
                            " prefixes; this network routes " +
                            std::to_string(prefixes)};
  }
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->restore_state(r, [this, prefixes](snap::Reader& in) {
      return load_update_payload(in, paths_, prefixes);
    });
    speakers_[node]->restore_state(r);
    fibs_[node].restore_state(r, prefixes);
  }
}

Speaker::Counters BgpNetwork::total_counters() const {
  Speaker::Counters total;
  for (const auto& s : speakers_) {
    const auto& c = s->counters();
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
