// Experiment driver for the link-state baseline.
#pragma once

#include <optional>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "ls/config.hpp"

namespace bgpsim::core {

struct LsScenario {
  TopologySpec topology;
  EventKind event = EventKind::kTlong;  // LS loops come from link events

  ls::LsConfig ls;
  /// IGP message processing is orders of magnitude cheaper than BGP's
  /// 0.1-0.5 s update handling; default 1-10 ms.
  net::ProcessingDelay processing{sim::SimTime::millis(1),
                                  sim::SimTime::millis(10)};
  fwd::TrafficConfig traffic;

  std::uint64_t seed = 1;
  std::optional<net::NodeId> destination;
  std::optional<net::LinkId> tlong_link;

  sim::SimTime traffic_lead = sim::SimTime::seconds(2);
  sim::SimTime settle_margin = sim::SimTime::seconds(5);
  sim::SimTime max_sim_time = sim::SimTime::seconds(50000);

  /// Checkpoint hooks (see Scenario for semantics).
  snap::Snapshot* save_converged = nullptr;
  const snap::Snapshot* warm_start = nullptr;
  SnapRoundtrip snap_roundtrip = SnapRoundtrip::kOff;
  /// An LS run is quiet by the first or second 1-s poll after the event,
  /// and the drain cancels anything still queued, so the probe must come
  /// well inside the first second to fire at all.
  sim::SimTime snap_roundtrip_after = sim::SimTime::millis(500);
};

/// Run the link-state baseline end to end; metrics use the same
/// definitions and substrate as run_experiment. Convergence clock: last
/// LSA put on the wire after the event.
[[nodiscard]] ExperimentOutcome run_ls_experiment(const LsScenario& scenario);

/// Hash of everything that shapes the converged LS prelude (see
/// scenario_prelude_hash).
[[nodiscard]] std::uint64_t ls_prelude_hash(const LsScenario& scenario);

}  // namespace bgpsim::core
