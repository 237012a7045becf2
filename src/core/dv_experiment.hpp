// Experiment driver for the distance-vector baseline: the same trial and
// metrics as run_experiment, with a DvNetwork in place of BgpNetwork. Its
// convergence test and clock (route-table stability, last table change)
// are explained with the DV trait in dv_experiment.cpp.
#pragma once

#include <optional>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "dv/config.hpp"

namespace bgpsim::core {

struct DvScenario {
  TopologySpec topology;
  EventKind event = EventKind::kTdown;

  dv::DvConfig dv;                  // RIP defaults: periodic 30 s, triggered
  net::ProcessingDelay processing;  // U[0.1 s, 0.5 s] as in the study
  fwd::TrafficConfig traffic;

  std::uint64_t seed = 1;
  std::optional<net::NodeId> destination;
  std::optional<net::LinkId> tlong_link;

  /// Optional runtime invariant oracle (see src/check/), borrowed for the
  /// run. DV speakers have no AS paths, MRAI timers, or sessions, so arm a
  /// DV-applicable invariant set (e.g. only ConvergedReferenceInvariant) —
  /// check::Oracle::standard() would judge DV by BGP timing rules. The
  /// driver feeds it FIB changes and the quiescent views (with an empty
  /// loc_path accessor, which skips the path-shape checks).
  check::Oracle* oracle = nullptr;

  sim::SimTime traffic_lead = sim::SimTime::seconds(2);
  sim::SimTime settle_margin = sim::SimTime::seconds(5);
  sim::SimTime max_sim_time = sim::SimTime::seconds(50000);

  /// Checkpoint hooks (see Scenario for semantics). DV fresh-graph
  /// checkpoints require triggered-only mode (dv.periodic == 0): periodic
  /// refresh keeps the event queue non-empty, so a converged-prelude
  /// snapshot cannot capture a quiescent queue otherwise.
  snap::Snapshot* save_converged = nullptr;
  const snap::Snapshot* warm_start = nullptr;
  SnapRoundtrip snap_roundtrip = SnapRoundtrip::kOff;
  sim::SimTime snap_roundtrip_after = sim::SimTime::seconds(5);
};

/// Run the distance-vector baseline end to end; the returned metrics use
/// the same definitions and substrate (data plane, loop detector) as
/// run_experiment, so they are directly comparable. The BGP-specific
/// counter block is left empty.
[[nodiscard]] ExperimentOutcome run_dv_experiment(const DvScenario& scenario);

/// Hash of everything that shapes the converged DV prelude (see
/// scenario_prelude_hash).
[[nodiscard]] std::uint64_t dv_prelude_hash(const DvScenario& scenario);

}  // namespace bgpsim::core
