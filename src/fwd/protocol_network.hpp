// One routing protocol assembled over the shared substrate: the paper's
// §2 contrast runs distance vector, link state and path vector on the same
// transport, the same serialized per-node processing queue (§4.2) and the
// same per-node FIB. bgp::BgpNetwork, dv::DvNetwork and ls::LsNetwork
// derive from ProtocolNetwork and add only what their protocol needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "fwd/fib.hpp"
#include "net/channel.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

namespace bgpsim::fwd {

/// One `Speaker` per topology node, each behind its own processing queue
/// and writing its own FIB, all sharing one Transport. Transport delivery
/// goes to the receiver's queue, and the queue hands each message and
/// session event to that node's speaker after its processing delay.
///
/// A `Speaker` is built as `Speaker(node, config, simulator, transport,
/// fib, rng, extra...)` and provides `set_peers`, `set_hooks(Hooks)`,
/// `originate`, `withdraw_origin`, `handle_message(from, payload)`,
/// `handle_session(peer, up)`, `quiescent()` and its checkpoint codec.
///
/// Checkpoint layout of every protocol network: BGP first writes its path
/// arena (bgp::PathArena::save), which the paths in everything behind it
/// name by ref; then the transport's wire counters, the protocol's header
/// (BGP writes its prefix count, which a restore requires to equal its
/// own; DV and LS write nothing), then per node, ascending, its processing
/// queue (queued payloads in the protocol's codec), its speaker and its
/// FIB.
///
/// The transport and queue handlers hold `this`, so a network is neither
/// copied nor moved.
template <typename Speaker>
class ProtocolNetwork {
 public:
  ProtocolNetwork(const ProtocolNetwork&) = delete;
  ProtocolNetwork& operator=(const ProtocolNetwork&) = delete;

  [[nodiscard]] Speaker& speaker(net::NodeId n) { return *speakers_.at(n); }
  [[nodiscard]] const Speaker& speaker(net::NodeId n) const {
    return *speakers_.at(n);
  }
  [[nodiscard]] std::size_t size() const { return speakers_.size(); }
  [[nodiscard]] std::vector<Fib>& fibs() { return fibs_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }
  [[nodiscard]] const net::Transport& transport() const { return transport_; }

  /// Install the same hooks on every speaker.
  void set_hooks(const typename Speaker::Hooks& hooks) {
    for (auto& s : speakers_) s->set_hooks(hooks);
  }

  /// The destination announces `prefix` at the current time.
  void originate(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).originate(prefix);
  }

  /// Tdown: the origin withdraws the prefix (links stay up).
  void inject_tdown(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).withdraw_origin(prefix);
  }

  /// Tlong: a physical link fails (sessions drop, in-flight lost).
  void inject_link_failure(net::LinkId link) { transport_.fail_link(link); }

  /// True while a message is on the wire, any node has queued or
  /// processing work, or a speaker holds deferred work (an MRAI-held
  /// decision, a pending triggered update, a pending SPF run). When false,
  /// the control plane has converged.
  [[nodiscard]] bool busy() const {
    if (transport_.messages_in_flight() > 0) return true;
    for (const auto& q : queues_) {
      if (q->busy() || q->backlog() > 0) return true;
    }
    for (const auto& s : speakers_) {
      if (!s->quiescent()) return true;
    }
    return false;
  }

 protected:
  /// Lays the substrate (transport, FIBs, one queue per node drawing its
  /// delays from the root's child ("proc", node)) and its wiring; the
  /// derived constructor then calls add_speakers().
  ProtocolNetwork(sim::Simulator& simulator, net::Topology& topology,
                  const net::ProcessingDelay& processing,
                  const sim::Rng& root_rng)
      : sim_{simulator}, topo_{topology}, transport_{simulator, topology} {
    const std::size_t n = topo_.node_count();
    fibs_.resize(n);
    queues_.reserve(n);
    for (net::NodeId node = 0; node < n; ++node) {
      queues_.push_back(std::make_unique<net::ProcessingQueue>(
          simulator, root_rng.child("proc", node), processing));
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
      queues_[node]->set_message_handler(
          [this, node](const net::Envelope& env) {
            speakers_[node]->handle_message(env.from, env.payload);
          });
      queues_[node]->set_session_handler(
          [this, node](const net::ProcessingQueue::SessionEvent& ev) {
            speakers_[node]->handle_session(ev.peer, ev.up);
          });
    }
  }

  ~ProtocolNetwork() = default;

  /// Build every node's speaker, with its RNG the root's child (label,
  /// node), and open its sessions to the node's up neighbours.
  template <typename Config, typename... Extra>
  void add_speakers(const Config& config, const sim::Rng& root_rng,
                    std::string_view label, Extra&... extra) {
    speakers_.reserve(fibs_.size());
    for (net::NodeId node = 0; node < fibs_.size(); ++node) {
      speakers_.push_back(std::make_unique<Speaker>(
          node, config, sim_, transport_, fibs_[node],
          root_rng.child(label, node), extra...));
      speakers_.back()->set_peers(topo_.up_neighbors(node));
    }
  }

  /// The per-node sections of the checkpoint layout above.
  void save_nodes(snap::Writer& w,
                  const net::ProcessingQueue::PayloadSaver& save_payload) const {
    for (std::size_t node = 0; node < speakers_.size(); ++node) {
      queues_[node]->save_state(w, save_payload);
      speakers_[node]->save_state(w);
      fibs_[node].save_state(w);
    }
  }

  /// Inverse of save_nodes; a FIB entry at or above `prefixes` is
  /// rejected.
  void restore_nodes(snap::Reader& r,
                     const net::ProcessingQueue::PayloadLoader& load_payload,
                     std::uint32_t prefixes) {
    for (std::size_t node = 0; node < speakers_.size(); ++node) {
      queues_[node]->restore_state(r, load_payload);
      speakers_[node]->restore_state(r);
      fibs_[node].restore_state(r, prefixes);
    }
  }

 private:
  sim::Simulator& sim_;
  net::Topology& topo_;
  net::Transport transport_;
  std::vector<Fib> fibs_;
  std::vector<std::unique_ptr<net::ProcessingQueue>> queues_;
  std::vector<std::unique_ptr<Speaker>> speakers_;
};

}  // namespace bgpsim::fwd
