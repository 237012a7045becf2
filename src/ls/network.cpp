#include "ls/network.hpp"

#include <utility>

namespace bgpsim::ls {

LsNetwork::LsNetwork(sim::Simulator& simulator, net::Topology& topology,
                     const LsConfig& config,
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
    speakers_.push_back(std::make_unique<LsSpeaker>(
        node, config, simulator, transport_, fibs_[node],
        root_rng.child("ls", node)));
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
      speakers_[node]->handle_lsa(
          env.from, env.payload.get<LsaMsg>().lsa);
    });
    queues_[node]->set_session_handler(
        [this, node](const net::ProcessingQueue::SessionEvent& ev) {
          speakers_[node]->handle_session(ev.peer, ev.up);
        });
  }
}

void LsNetwork::set_hooks(const LsSpeaker::Hooks& hooks) {
  for (auto& s : speakers_) s->set_hooks(hooks);
}

void LsNetwork::start_all() {
  for (auto& s : speakers_) s->start();
}

bool LsNetwork::busy() const {
  if (control_messages_in_flight() > 0) return true;
  for (const auto& q : queues_) {
    if (q->busy() || q->backlog() > 0) return true;
  }
  for (const auto& s : speakers_) {
    if (s->spf_pending()) return true;
  }
  return false;
}

namespace {

void save_lsa_payload(snap::Writer& w, const net::Payload& payload) {
  save_lsa(w, payload.get<LsaMsg>().lsa);
}

net::Payload load_lsa_payload(snap::Reader& r) {
  return net::Payload{LsaMsg{load_lsa(r)}};
}

}  // namespace

void LsNetwork::save_state(snap::Writer& w) const {
  transport_.save_state(w);
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->save_state(w, save_lsa_payload);
    speakers_[node]->save_state(w);
    fibs_[node].save_state(w);
  }
}

void LsNetwork::restore_state(snap::Reader& r) {
  transport_.restore_state(r);
  for (std::size_t node = 0; node < speakers_.size(); ++node) {
    queues_[node]->restore_state(r, load_lsa_payload);
    speakers_[node]->restore_state(r);
    fibs_[node].restore_state(r, 1);  // LS routes one prefix
  }
}

LsSpeaker::Counters LsNetwork::total_counters() const {
  LsSpeaker::Counters total;
  for (const auto& s : speakers_) {
    const auto& c = s->counters();
    total.lsas_originated += c.lsas_originated;
    total.lsas_flooded += c.lsas_flooded;
    total.lsas_accepted += c.lsas_accepted;
    total.lsas_ignored += c.lsas_ignored;
    total.spf_runs += c.spf_runs;
  }
  return total;
}

}  // namespace bgpsim::ls
