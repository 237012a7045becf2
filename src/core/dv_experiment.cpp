#include "core/dv_experiment.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "check/oracle.hpp"
#include "core/selection.hpp"
#include "core/snap_support.hpp"
#include "dv/network.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {
namespace {

constexpr net::Prefix kPrefix = 0;

/// Capture the DV run state: the common substrate plus the driver's local
/// stability clock and origin flag.
snap::Snapshot capture_dv(const sim::Simulator& simulator,
                          const dv::DvNetwork& network,
                          const fwd::DataPlane& plane,
                          const fwd::TrafficGenerator& traffic,
                          const metrics::Collector& collector,
                          sim::SimTime last_change, bool origin_up,
                          std::uint64_t topology_hash,
                          std::uint64_t config_hash, std::uint64_t seed,
                          net::NodeId destination, bool originated,
                          bool quiescent) {
  snap::Writer w;
  detail::save_run_state(w, simulator, network, plane, traffic, collector);
  w.time(last_change);
  w.b(origin_up);
  snap::SnapshotMeta meta;
  meta.driver = snap::DriverKind::kDv;
  meta.topology_hash = topology_hash;
  meta.config_hash = config_hash;
  meta.seed = seed;
  meta.destination = destination;
  meta.originated = originated;
  meta.quiescent = quiescent;
  meta.sim_time = simulator.now();
  return snap::Snapshot{std::move(meta), std::move(w).take()};
}

void restore_dv(const snap::Snapshot& snapshot, sim::Simulator& simulator,
                dv::DvNetwork& network, fwd::DataPlane& plane,
                fwd::TrafficGenerator& traffic, metrics::Collector& collector,
                sim::SimTime& last_change, bool& origin_up) {
  snap::Reader r{snapshot.payload()};
  detail::restore_run_state(r, simulator, network, plane, traffic, collector);
  last_change = r.time();
  origin_up = r.b();
  r.finish();
}

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
  if (scenario.settle_margin <= scenario.traffic_lead) {
    throw std::invalid_argument{
        "DvScenario: settle_margin must exceed traffic_lead"};
  }
  if (scenario.dv.periodic == sim::SimTime::zero() && !scenario.dv.triggered) {
    throw std::invalid_argument{
        "DvScenario: need triggered updates, periodic refresh, or both"};
  }
  if (scenario.event == EventKind::kFlap) {
    // Flap needs session-restoration semantics; the RIP baseline has no
    // notion of a session, and triggered-only DV would never relearn the
    // restored link.
    throw std::invalid_argument{
        "DvScenario: flap event is not supported by the DV baseline"};
  }

  net::Topology topo = scenario.topology.build();
  sim::Rng root{scenario.seed};
  sim::Rng scenario_rng = root.child("scenario");

  const net::NodeId destination =
      choose_destination(scenario.topology.kind, scenario.event,
                         scenario.destination, topo, scenario_rng);
  std::optional<net::LinkId> failed_link;
  if (scenario.event == EventKind::kTlong) {
    failed_link =
        choose_tlong_link(scenario.topology.kind, scenario.topology.size,
                          scenario.tlong_link, topo, destination,
                          scenario_rng);
  }

  sim::Simulator simulator;
  dv::DvNetwork network{simulator, topo, scenario.dv, scenario.processing,
                        root};
  check::Oracle* oracle = scenario.oracle;
  if (oracle) {
    // Default BgpConfig: only topology/prefix/destination matter to the
    // DV-applicable invariants (see DvScenario::oracle).
    oracle->arm(check::Context{.topology = &topo,
                               .bgp = {},
                               .prefix = kPrefix,
                               .destination = destination,
                               .policy_routing = false});
  }
  metrics::Collector collector;
  // Stability clock: the last time any route table changed anywhere.
  sim::SimTime last_change = sim::SimTime::zero();
  network.set_hooks(dv::DvSpeaker::Hooks{
      .on_update_sent =
          [&](net::NodeId, net::NodeId, const dv::DvUpdate&) {
            collector.note_update_sent(simulator.now(), false);
          },
      .on_route_changed =
          [&](net::NodeId, net::Prefix, std::optional<int>) {
            last_change = simulator.now();
          },
  });

  // With periodic refresh the network is "stable" once two whole refresh
  // cycles (plus triggered/processing slack) pass without a table change.
  const sim::SimTime stability_window =
      scenario.dv.periodic > sim::SimTime::zero()
          ? 2 * scenario.dv.periodic + sim::SimTime::seconds(10)
          : scenario.dv.triggered_delay_hi + sim::SimTime::seconds(10);
  const bool has_periodic = scenario.dv.periodic > sim::SimTime::zero();
  const auto stable = [&] {
    if (!has_periodic) return !network.busy();  // triggered-only: drains
    return simulator.now() - last_change > stability_window;
  };

  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       fwd::DataPlaneOptions::single(destination)};
  plane.set_fate_sink(&collector);

  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(simulator, network.fibs(), {&detector, 1});
  if (oracle) oracle->observe_fibs(simulator, network.fibs());

  // DV has no Loc-RIB paths, so the view exposes only forwarding state;
  // the reference check then verifies loop-freedom and distance-decreasing
  // next hops but skips the AS-path shape checks.
  bool origin_up = scenario.event != EventKind::kTup;
  const auto quiescent_view = [&]() -> check::QuiescentView {
    check::QuiescentView view;
    view.fib_next_hop = [&](net::NodeId n) {
      return network.fibs()[n].next_hop(kPrefix);
    };
    view.origin_up = origin_up;
    return view;
  };

  fwd::TrafficGenerator traffic{simulator, plane, scenario.traffic,
                                root.child("traffic")};
  traffic.set_send_hook([&](net::NodeId, net::Prefix, sim::SimTime when) {
    collector.note_packet_sent(when);
  });

  // ---- Phase 1: cold-start convergence or warm start --------------------
  // Fresh-graph checkpoints need an *empty* event queue, which periodic
  // refresh never allows — the converged-prelude hooks are triggered-only.
  if ((scenario.warm_start || scenario.save_converged) && has_periodic) {
    throw std::invalid_argument{
        "DvScenario: warm_start/save_converged require triggered-only mode "
        "(dv.periodic == 0); periodic refresh keeps the event queue busy"};
  }
  const std::uint64_t topology_hash = snap::hash_topology(topo);
  const std::uint64_t config_hash = dv_prelude_hash(scenario);
  const bool prelude_originated = scenario.event != EventKind::kTup;

  if (scenario.warm_start) {
    detail::require_meta_match(scenario.warm_start->meta(),
                               snap::DriverKind::kDv, topology_hash,
                               config_hash, scenario.seed, destination,
                               prelude_originated);
    restore_dv(*scenario.warm_start, simulator, network, plane, traffic,
               collector, last_change, origin_up);
    const snap::Snapshot echo =
        capture_dv(simulator, network, plane, traffic, collector, last_change,
                   origin_up, topology_hash, config_hash, scenario.seed,
                   destination, prelude_originated, /*quiescent=*/true);
    if (oracle) {
      oracle->on_restored(scenario.warm_start->content_hash(),
                          echo.content_hash(), simulator.now());
    } else if (echo.content_hash() != scenario.warm_start->content_hash()) {
      throw std::runtime_error{
          "dv warm start restore is not bit-exact: restored state "
          "re-serializes to a different content hash"};
    }
  } else {
    if (prelude_originated) {
      simulator.schedule_at(sim::SimTime::zero(),
                            [&] { network.originate(destination, kPrefix); });
    }
    // Run until the tables stabilize (bounded by max_sim_time).
    sim::SimTime horizon = stability_window + sim::SimTime::seconds(30);
    while (horizon < scenario.max_sim_time) {
      simulator.run_until(horizon);
      if (stable()) break;
      horizon += stability_window;
    }
    if (!stable()) {
      throw std::runtime_error{"dv initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = last_change.as_seconds();
  if (oracle) oracle->at_quiescence(quiescent_view(), simulator.now());

  if (scenario.save_converged) {
    if (simulator.pending() > 0) {
      throw std::runtime_error{
          "dv save_converged: event queue not empty at stability"};
    }
    *scenario.save_converged =
        capture_dv(simulator, network, plane, traffic, collector, last_change,
                   origin_up, topology_hash, config_hash, scenario.seed,
                   destination, prelude_originated, /*quiescent=*/true);
  }

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = simulator.now() + scenario.settle_margin;
  const sim::SimTime t_traffic = t_event - scenario.traffic_lead;

  std::vector<net::NodeId> sources;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (n != destination) sources.push_back(n);
  }
  traffic.start(sources, t_traffic);

  simulator.schedule_at(t_event, [&] {
    detector.clear_history();
    last_change = simulator.now();
    switch (scenario.event) {
      case EventKind::kTdown:
        network.inject_tdown(destination, kPrefix);
        origin_up = false;
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*failed_link);
        break;
      case EventKind::kTup:
        network.originate(destination, kPrefix);
        origin_up = true;
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  });

  // Mid-run serialize/deserialize probe (see Scenario::snap_roundtrip).
  // In-place restores work with periodic refresh too: scheduled events
  // stay in the queue untouched.
  if (scenario.snap_roundtrip != SnapRoundtrip::kOff) {
    simulator.schedule_at(t_event + scenario.snap_roundtrip_after, [&] {
      if (scenario.snap_roundtrip != SnapRoundtrip::kVerify) return;
      const snap::Snapshot before =
          capture_dv(simulator, network, plane, traffic, collector,
                     last_change, origin_up, topology_hash, config_hash,
                     scenario.seed, destination, prelude_originated,
                     /*quiescent=*/false);
      restore_dv(before, simulator, network, plane, traffic, collector,
                 last_change, origin_up);
      const snap::Snapshot after =
          capture_dv(simulator, network, plane, traffic, collector,
                     last_change, origin_up, topology_hash, config_hash,
                     scenario.seed, destination, prelude_originated,
                     /*quiescent=*/false);
      if (before.content_hash() != after.content_hash()) {
        if (oracle) {
          oracle->on_restored(before.content_hash(), after.content_hash(),
                              simulator.now());
        }
        throw std::runtime_error{
            "dv snapshot round-trip diverged mid-run: in-place restore did "
            "not reproduce the saved state byte-for-byte"};
      }
    });
  }

  bool timed_out = false;
  bool done = false;
  const auto drain = sim::SimTime::seconds(2);
  std::function<void()> poll = [&] {
    if (stable()) {
      done = true;
      traffic.stop();
      simulator.schedule_after(drain, [&] { simulator.clear_pending(); });
      return;
    }
    if (simulator.now() >= scenario.max_sim_time) {
      timed_out = true;
      simulator.clear_pending();
      return;
    }
    simulator.schedule_after(sim::SimTime::seconds(2), poll);
  };
  simulator.schedule_at(t_event + sim::SimTime::seconds(2), poll);

  simulator.run_until(scenario.max_sim_time + sim::SimTime::seconds(10));
  if (timed_out || !done) {
    throw std::runtime_error{"dv scenario did not converge in max_sim_time"};
  }

  const sim::SimTime end = simulator.now();
  detector.finalize(end);
  if (oracle) oracle->at_quiescence(quiescent_view(), end);

  // ---- Metrics (same definitions; DV clock = last table change) --------
  ExperimentOutcome out;
  out.destination = destination;
  out.failed_link = failed_link;
  out.initial_convergence_s = initial_convergence_s;
  out.events_fired = simulator.events_fired();

  metrics::RunMetrics& m = out.metrics;
  m.event_at = t_event;
  m.last_update_at = std::max(last_change, t_event);
  m.convergence_time_s = (m.last_update_at - t_event).as_seconds();

  const auto first_exh = collector.first_exhaustion(t_event);
  const auto last_exh = collector.last_exhaustion(t_event);
  m.first_exhaustion_at = first_exh.value_or(t_event);
  m.last_exhaustion_at = last_exh.value_or(t_event);
  m.looping_duration_s =
      first_exh ? (m.last_exhaustion_at - m.first_exhaustion_at).as_seconds()
                : 0.0;

  m.ttl_exhaustions = collector.exhaustions_since(t_event);
  m.packets_sent_during_convergence =
      collector.packets_sent_in(t_event, m.last_update_at);
  m.looping_ratio =
      m.packets_sent_during_convergence == 0
          ? 0.0
          : static_cast<double>(m.ttl_exhaustions) /
                static_cast<double>(m.packets_sent_during_convergence);

  m.packets_sent_total = collector.packets_sent_total();
  m.packets_delivered = collector.delivered_total();
  m.packets_no_route = collector.no_route_total();
  m.packets_link_down = collector.link_down_total();
  m.updates_sent = collector.updates_sent_since(t_event);
  m.updates_sent_total = collector.updates_sent_total();

  const auto profile_end = m.last_update_at + sim::SimTime::seconds(1);
  m.update_activity_1s =
      collector.update_activity(t_event, profile_end, sim::SimTime::seconds(1));
  m.exhaustion_activity_1s = collector.exhaustion_activity(
      t_event, profile_end, sim::SimTime::seconds(1));

  m.loops = detector.records();
  m.loops_formed = m.loops.size();
  m.loop_stats = metrics::analyze_loops(m.loops, end);
  if (!m.loops.empty()) {
    double size_sum = 0;
    for (const auto& loop : m.loops) {
      size_sum += static_cast<double>(loop.size());
      m.max_loop_size = std::max(m.max_loop_size, loop.size());
      m.max_loop_duration_s =
          std::max(m.max_loop_duration_s, loop.duration_seconds(end));
    }
    m.mean_loop_size = size_sum / static_cast<double>(m.loops.size());
  }
  return out;
}

}  // namespace bgpsim::core
