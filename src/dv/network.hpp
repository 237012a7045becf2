// Assembles a distance-vector network over a topology (the DV analogue of
// bgp::BgpNetwork, on the same substrate).
#pragma once

#include <memory>
#include <vector>

#include "dv/config.hpp"
#include "dv/speaker.hpp"
#include "fwd/fib.hpp"
#include "net/channel.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::dv {

class DvNetwork {
 public:
  DvNetwork(sim::Simulator& simulator, net::Topology& topology,
            const DvConfig& config, const net::ProcessingDelay& processing,
            const sim::Rng& root_rng);

  [[nodiscard]] DvSpeaker& speaker(net::NodeId n) { return *speakers_.at(n); }
  [[nodiscard]] std::size_t size() const { return speakers_.size(); }
  [[nodiscard]] std::vector<fwd::Fib>& fibs() { return fibs_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }

  void set_hooks(const DvSpeaker::Hooks& hooks);

  void originate(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).originate(prefix);
  }
  void inject_tdown(net::NodeId origin, net::Prefix prefix) {
    speaker(origin).withdraw_origin(prefix);
  }
  void inject_link_failure(net::LinkId link) { transport_.fail_link(link); }

  [[nodiscard]] std::uint64_t control_messages_in_flight() const {
    return transport_.messages_sent() - transport_.messages_delivered() -
           transport_.messages_lost();
  }

  /// True while queues, in-flight messages, or pending triggered updates
  /// can still change routing state. (Periodic updates, if enabled, keep
  /// firing regardless — use triggered-only mode for quiescence-based
  /// experiments.)
  [[nodiscard]] bool busy() const;

  [[nodiscard]] DvSpeaker::Counters total_counters() const;

  /// Checkpoint codec (same layout discipline as bgp::BgpNetwork).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  sim::Simulator& sim_;
  net::Topology& topo_;
  net::Transport transport_;
  std::vector<fwd::Fib> fibs_;
  std::vector<std::unique_ptr<net::ProcessingQueue>> queues_;
  std::vector<std::unique_ptr<DvSpeaker>> speakers_;
};

/// The snapshot codec of one queued update. A route count the remaining
/// bytes cannot hold ends in snap::FormatError.
void save_dv_update(snap::Writer& w, const DvUpdate& msg);
[[nodiscard]] DvUpdate load_dv_update(snap::Reader& r);

}  // namespace bgpsim::dv
