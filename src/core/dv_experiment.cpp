#include "core/dv_experiment.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/driver.hpp"
#include "dv/network.hpp"
#include "snap/codec.hpp"

namespace bgpsim::core {
namespace {

using detail::kPrefix;

/// The distance-vector baseline. Periodic refresh keeps the event queue
/// busy forever, so DV detects convergence by route-table stability (no
/// table change anywhere for two refresh cycles) rather than by queue
/// drain, and its convergence clock runs from the event to the last
/// route-table change (for BGP the clock ends at the last update sent; for
/// triggered updates the two differ by at most one triggered delay). The
/// clock and the origin flag are the driver's own state, so they ride in
/// the snapshot after the shared substrate.
struct DvProtocol : detail::ProtocolDefaults {
  using Spec = DvScenario;
  static constexpr snap::DriverKind kKind = snap::DriverKind::kDv;
  static constexpr const char* kSpecName = "DvScenario";
  static constexpr const char* kTag = "dv ";
  static constexpr sim::SimTime kPollPeriod = sim::SimTime::seconds(2);

  static constexpr auto prelude_hash = &dv_prelude_hash;

  static void validate(const DvScenario& s) {
    if (s.dv.periodic == sim::SimTime::zero() && !s.dv.triggered) {
      throw std::invalid_argument{
          "DvScenario: need triggered updates, periodic refresh, or both"};
    }
    if (s.event == EventKind::kFlap) {
      // Flap needs session-restoration semantics; the RIP baseline has no
      // notion of a session, and triggered-only DV would never relearn the
      // restored link.
      throw std::invalid_argument{
          "DvScenario: flap event is not supported by the DV baseline"};
    }
    // Fresh-graph checkpoints need an *empty* event queue, which periodic
    // refresh never allows — the converged-prelude hooks are triggered-only.
    if ((s.warm_start || s.save_converged) &&
        s.dv.periodic > sim::SimTime::zero()) {
      throw std::invalid_argument{
          "DvScenario: warm_start/save_converged require triggered-only mode "
          "(dv.periodic == 0); periodic refresh keeps the event queue busy"};
    }
  }

  explicit DvProtocol(const DvScenario& s)
      : topo{s.topology.build()},
        origin_up{s.event != EventKind::kTup},
        has_periodic{s.dv.periodic > sim::SimTime::zero()},
        // With periodic refresh the network is "stable" once two whole
        // refresh cycles (plus triggered/processing slack) pass without a
        // table change.
        stability_window{has_periodic
                             ? 2 * s.dv.periodic + sim::SimTime::seconds(10)
                             : s.dv.triggered_delay_hi +
                                   sim::SimTime::seconds(10)} {}

  dv::DvNetwork& start(const DvScenario& s, sim::Simulator& simulator,
                       const sim::Rng& root, net::NodeId) {
    return network.emplace(simulator, topo, s.dv, s.processing, root);
  }

  void set_hooks(sim::Simulator& simulator, metrics::Collector& collector,
                 metrics::TraceRecorder*, check::Oracle*) {
    network->set_hooks(dv::DvSpeaker::Hooks{
        .on_update_sent =
            [&collector, &simulator](net::NodeId, net::NodeId,
                                     const dv::DvUpdate&) {
              collector.note_update_sent(simulator.now(), false);
            },
        .on_route_changed =
            [this, &simulator](net::NodeId, net::Prefix, std::optional<int>) {
              last_change = simulator.now();
            },
    });
  }

  // DV has no Loc-RIB paths, so the view exposes only forwarding state;
  // the reference check then verifies loop-freedom and distance-decreasing
  // next hops but skips the AS-path shape checks.
  void complete_view(check::QuiescentView& view, net::NodeId) const {
    view.origin_up = origin_up;
  }

  void cold_prelude(const DvScenario& s, sim::Simulator& simulator,
                    net::NodeId destination, bool originated) {
    if (originated) {
      simulator.schedule_at(sim::SimTime::zero(), [=, this] {
        network->originate(destination, kPrefix);
      });
    }
    // Run until the tables stabilize (bounded by max_sim_time).
    sim::SimTime horizon = stability_window + sim::SimTime::seconds(30);
    while (horizon < s.max_sim_time) {
      simulator.run_until(horizon);
      if (stable(simulator)) break;
      horizon += stability_window;
    }
    if (!stable(simulator)) {
      throw std::runtime_error{"dv initial convergence exceeded max_sim_time"};
    }
    if (s.save_converged && simulator.pending() > 0) {
      throw std::runtime_error{
          "dv save_converged: event queue not empty at stability"};
    }
  }

  [[nodiscard]] bool stable(const sim::Simulator& simulator) const {
    if (!has_periodic) return !network->busy();  // triggered-only: drains
    return simulator.now() - last_change > stability_window;
  }

  void inject(const DvScenario& s, sim::Simulator& simulator,
              net::NodeId destination, std::optional<net::LinkId> failed) {
    last_change = simulator.now();
    switch (s.event) {
      case EventKind::kTdown:
        network->inject_tdown(destination, kPrefix);
        origin_up = false;
        break;
      case EventKind::kTlong:
        network->inject_link_failure(*failed);
        break;
      case EventKind::kTup:
        network->originate(destination, kPrefix);
        origin_up = true;
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  }

  void save_extras(snap::Writer& w) const {
    w.time(last_change);
    w.b(origin_up);
  }
  void restore_extras(snap::Reader& r) {
    last_change = r.time();
    origin_up = r.b();
  }

  [[nodiscard]] double initial_convergence_s(const sim::Simulator&) const {
    return last_change.as_seconds();
  }
  [[nodiscard]] sim::SimTime last_update_at(const metrics::Collector&,
                                            sim::SimTime t_event) const {
    return std::max(last_change, t_event);
  }

  net::Topology topo;
  std::optional<dv::DvNetwork> network;
  // Stability clock: the last time any route table changed anywhere.
  sim::SimTime last_change = sim::SimTime::zero();
  bool origin_up;
  bool has_periodic;
  sim::SimTime stability_window;
};

}  // namespace

std::uint64_t dv_prelude_hash(const DvScenario& scenario) {
  snap::Hasher h;
  h.mix(static_cast<std::uint64_t>(scenario.topology.kind));
  h.mix(scenario.topology.size);
  h.mix(scenario.topology.topo_seed);
  h.mix(static_cast<std::uint64_t>(scenario.dv.infinity));
  h.mix((scenario.dv.split_horizon ? 1U : 0U) |
        (scenario.dv.poison_reverse ? 2U : 0U) |
        (scenario.dv.triggered ? 4U : 0U));
  h.mix_time(scenario.dv.triggered_delay_lo);
  h.mix_time(scenario.dv.triggered_delay_hi);
  h.mix_time(scenario.dv.periodic);
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

ExperimentOutcome run_dv_experiment(const DvScenario& scenario) {
  return detail::run_driver<DvProtocol>(scenario);
}

}  // namespace bgpsim::core
