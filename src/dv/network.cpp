#include "dv/network.hpp"

#include <utility>

namespace bgpsim::dv {

DvNetwork::DvNetwork(sim::Simulator& simulator, net::Topology& topology,
                     const DvConfig& config,
                     const net::ProcessingDelay& processing,
                     const sim::Rng& root_rng)
    : sim_{simulator}, topo_{topology}, transport_{simulator, topology} {
  const std::size_t n = topo_.node_count();
  fibs_.resize(n);
  queues_.reserve(n);
  speakers_.reserve(n);

  for (net::NodeId node = 0; node < n; ++node) {
    queues_.push_back(std::make_unique<net::ProcessingQueue>(
        simulator, root_rng.child("proc", node), processing));
    speakers_.push_back(std::make_unique<DvSpeaker>(
        node, config, simulator, transport_, fibs_[node],
        root_rng.child("dv", node)));
    speakers_.back()->set_peers(topo_.up_neighbors(node));
  }

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
      speakers_[node]->handle_update(env.from,
                                     env.payload.get<DvUpdate>());
    });
    queues_[node]->set_session_handler(
        [this, node](const net::ProcessingQueue::SessionEvent& ev) {
          speakers_[node]->handle_session(ev.peer, ev.up);
        });
  }
}

void DvNetwork::set_hooks(const DvSpeaker::Hooks& hooks) {
  for (auto& s : speakers_) s->set_hooks(hooks);
}

bool DvNetwork::busy() const {
  if (control_messages_in_flight() > 0) return true;
  for (const auto& q : queues_) {
    if (q->busy() || q->backlog() > 0) return true;
  }
  for (const auto& s : speakers_) {
    if (s->trigger_pending()) return true;
  }
  return false;
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

namespace {

void save_dv_payload(snap::Writer& w, const net::Payload& payload) {
  save_dv_update(w, payload.get<DvUpdate>());
}

net::Payload load_dv_payload(snap::Reader& r) {
  return net::Payload{load_dv_update(r)};
}

}  // namespace

void DvNetwork::save_state(snap::Writer& w) const {
  transport_.save_state(w);
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->save_state(w, save_dv_payload);
    speakers_[node]->save_state(w);
    fibs_[node].save_state(w);
  }
}

void DvNetwork::restore_state(snap::Reader& r) {
  transport_.restore_state(r);
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->restore_state(r, load_dv_payload);
    speakers_[node]->restore_state(r);
    fibs_[node].restore_state(r, 1);  // DV routes one prefix
  }
}

DvSpeaker::Counters DvNetwork::total_counters() const {
  DvSpeaker::Counters total;
  for (const auto& s : speakers_) {
    const auto& c = s->counters();
    total.updates_sent += c.updates_sent;
    total.routes_advertised += c.routes_advertised;
    total.poisoned_advertisements += c.poisoned_advertisements;
    total.route_changes += c.route_changes;
  }
  return total;
}

}  // namespace bgpsim::dv
