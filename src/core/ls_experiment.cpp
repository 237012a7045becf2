#include "core/ls_experiment.hpp"

#include <optional>
#include <stdexcept>

#include "core/driver.hpp"
#include "ls/network.hpp"
#include "snap/codec.hpp"

namespace bgpsim::core {
namespace {

using detail::kPrefix;

/// The link-state baseline: every router floods its LSAs at bring-up, and
/// the convergence clock ends at the last LSA put on the wire after the
/// event.
struct LsProtocol : detail::ProtocolDefaults {
  using Spec = LsScenario;
  static constexpr snap::DriverKind kKind = snap::DriverKind::kLs;
  static constexpr const char* kSpecName = "LsScenario";
  static constexpr const char* kTag = "ls ";

  static constexpr auto prelude_hash = &ls_prelude_hash;

  static void validate(const LsScenario& s) {
    if (s.event == EventKind::kFlap) {
      throw std::invalid_argument{
          "LsScenario: flap event is not supported by the LS baseline"};
    }
  }

  explicit LsProtocol(const LsScenario& s) : topo{s.topology.build()} {}

  ls::LsNetwork& start(const LsScenario& s, sim::Simulator& simulator,
                       const sim::Rng& root, net::NodeId) {
    return network.emplace(simulator, topo, s.ls, s.processing, root);
  }

  void set_hooks(sim::Simulator& simulator, metrics::Collector& collector,
                 metrics::TraceRecorder*, check::Oracle*) {
    network->set_hooks(ls::LsSpeaker::Hooks{
        .on_lsa_sent =
            [&collector, &simulator](net::NodeId, net::NodeId,
                                     const ls::Lsa&) {
              collector.note_update_sent(simulator.now(), false);
            },
        .on_route_changed = nullptr,
    });
  }

  void cold_prelude(const LsScenario& s, sim::Simulator& simulator,
                    net::NodeId destination, bool originated) {
    simulator.schedule_at(sim::SimTime::zero(), [=, this] {
      network->start_all();
      if (originated) network->originate(destination, kPrefix);
    });
    simulator.run_until(s.max_sim_time);
    if (simulator.pending() > 0 || network->busy()) {
      throw std::runtime_error{"ls initial convergence exceeded max_sim_time"};
    }
  }

  [[nodiscard]] bool stable(const sim::Simulator&) const {
    return !network->busy();
  }

  void inject(const LsScenario& s, sim::Simulator&, net::NodeId destination,
              std::optional<net::LinkId> failed) {
    switch (s.event) {
      case EventKind::kTdown:
        network->inject_tdown(destination, kPrefix);
        break;
      case EventKind::kTlong:
        network->inject_link_failure(*failed);
        break;
      case EventKind::kTup:
        network->originate(destination, kPrefix);
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  }

  net::Topology topo;
  std::optional<ls::LsNetwork> network;
};

}  // namespace

std::uint64_t ls_prelude_hash(const LsScenario& scenario) {
  snap::Hasher h;
  h.mix(static_cast<std::uint64_t>(scenario.topology.kind));
  h.mix(scenario.topology.size);
  h.mix(scenario.topology.topo_seed);
  h.mix_time(scenario.ls.spf_delay_lo);
  h.mix_time(scenario.ls.spf_delay_hi);
  h.mix_time(scenario.processing.min);
  h.mix_time(scenario.processing.max);
  h.mix(scenario.destination.value_or(net::kInvalidNode));
  h.mix(scenario.event != EventKind::kTup ? 1 : 0);
  const bool link_filter = scenario.topology.kind == TopologyKind::kInternet &&
                           !scenario.destination &&
                           scenario.event == EventKind::kTlong;
  h.mix(link_filter ? 1 : 0);
  return h.value();
}

ExperimentOutcome run_ls_experiment(const LsScenario& scenario) {
  return detail::run_driver<LsProtocol>(scenario);
}

}  // namespace bgpsim::core
