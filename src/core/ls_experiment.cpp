#include "core/ls_experiment.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/selection.hpp"
#include "core/snap_support.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "ls/network.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {
namespace {

constexpr net::Prefix kPrefix = 0;

snap::Snapshot capture_ls(const sim::Simulator& simulator,
                          const ls::LsNetwork& network,
                          const fwd::DataPlane& plane,
                          const fwd::TrafficGenerator& traffic,
                          const metrics::Collector& collector,
                          std::uint64_t topology_hash,
                          std::uint64_t config_hash, std::uint64_t seed,
                          net::NodeId destination, bool originated,
                          bool quiescent) {
  snap::Writer w;
  detail::save_run_state(w, simulator, network, plane, traffic, collector);
  snap::SnapshotMeta meta;
  meta.driver = snap::DriverKind::kLs;
  meta.topology_hash = topology_hash;
  meta.config_hash = config_hash;
  meta.seed = seed;
  meta.destination = destination;
  meta.originated = originated;
  meta.quiescent = quiescent;
  meta.sim_time = simulator.now();
  return snap::Snapshot{std::move(meta), std::move(w).take()};
}

void restore_ls(const snap::Snapshot& snapshot, sim::Simulator& simulator,
                ls::LsNetwork& network, fwd::DataPlane& plane,
                fwd::TrafficGenerator& traffic,
                metrics::Collector& collector) {
  snap::Reader r{snapshot.payload()};
  detail::restore_run_state(r, simulator, network, plane, traffic, collector);
  r.finish();
}

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
  if (scenario.settle_margin <= scenario.traffic_lead) {
    throw std::invalid_argument{
        "LsScenario: settle_margin must exceed traffic_lead"};
  }
  if (scenario.event == EventKind::kFlap) {
    throw std::invalid_argument{
        "LsScenario: flap event is not supported by the LS baseline"};
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
  ls::LsNetwork network{simulator, topo, scenario.ls, scenario.processing,
                        root};
  metrics::Collector collector;
  network.set_hooks(ls::LsSpeaker::Hooks{
      .on_lsa_sent =
          [&](net::NodeId, net::NodeId, const ls::Lsa&) {
            collector.note_update_sent(simulator.now(), false);
          },
      .on_route_changed = nullptr,
  });

  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       fwd::DataPlaneOptions::single(destination)};
  plane.set_fate_sink(&collector);

  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(simulator, network.fibs(), {&detector, 1});

  fwd::TrafficGenerator traffic{simulator, plane, scenario.traffic,
                                root.child("traffic")};
  traffic.set_send_hook([&](net::NodeId, net::Prefix, sim::SimTime when) {
    collector.note_packet_sent(when);
  });

  // ---- Phase 1: bring-up + cold-start convergence, or warm start --------
  const std::uint64_t topology_hash = snap::hash_topology(topo);
  const std::uint64_t config_hash = ls_prelude_hash(scenario);
  const bool prelude_originated = scenario.event != EventKind::kTup;

  if (scenario.warm_start) {
    detail::require_meta_match(scenario.warm_start->meta(),
                               snap::DriverKind::kLs, topology_hash,
                               config_hash, scenario.seed, destination,
                               prelude_originated);
    restore_ls(*scenario.warm_start, simulator, network, plane, traffic,
               collector);
    const snap::Snapshot echo =
        capture_ls(simulator, network, plane, traffic, collector,
                   topology_hash, config_hash, scenario.seed, destination,
                   prelude_originated, /*quiescent=*/true);
    if (echo.content_hash() != scenario.warm_start->content_hash()) {
      throw std::runtime_error{
          "ls warm start restore is not bit-exact: restored state "
          "re-serializes to a different content hash"};
    }
  } else {
    simulator.schedule_at(sim::SimTime::zero(), [&] {
      network.start_all();
      if (prelude_originated) {
        network.originate(destination, kPrefix);
      }
    });
    simulator.run_until(scenario.max_sim_time);
    if (simulator.pending() > 0 || network.busy()) {
      throw std::runtime_error{"ls initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = simulator.now().as_seconds();

  if (scenario.save_converged) {
    *scenario.save_converged =
        capture_ls(simulator, network, plane, traffic, collector,
                   topology_hash, config_hash, scenario.seed, destination,
                   prelude_originated, /*quiescent=*/true);
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
    switch (scenario.event) {
      case EventKind::kTdown:
        network.inject_tdown(destination, kPrefix);
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*failed_link);
        break;
      case EventKind::kTup:
        network.originate(destination, kPrefix);
        break;
      case EventKind::kFlap:
        break;  // rejected up front
    }
  });

  // Mid-run serialize/deserialize probe (see Scenario::snap_roundtrip).
  if (scenario.snap_roundtrip != SnapRoundtrip::kOff) {
    simulator.schedule_at(t_event + scenario.snap_roundtrip_after, [&] {
      if (scenario.snap_roundtrip != SnapRoundtrip::kVerify) return;
      const snap::Snapshot before =
          capture_ls(simulator, network, plane, traffic, collector,
                     topology_hash, config_hash, scenario.seed, destination,
                     prelude_originated, /*quiescent=*/false);
      restore_ls(before, simulator, network, plane, traffic, collector);
      const snap::Snapshot after =
          capture_ls(simulator, network, plane, traffic, collector,
                     topology_hash, config_hash, scenario.seed, destination,
                     prelude_originated, /*quiescent=*/false);
      if (before.content_hash() != after.content_hash()) {
        throw std::runtime_error{
            "ls snapshot round-trip diverged mid-run: in-place restore did "
            "not reproduce the saved state byte-for-byte"};
      }
    });
  }

  bool timed_out = false;
  const auto drain = sim::SimTime::seconds(2);
  std::function<void()> poll = [&] {
    if (!network.busy()) {
      traffic.stop();
      simulator.schedule_after(drain, [&] { simulator.clear_pending(); });
      return;
    }
    if (simulator.now() >= scenario.max_sim_time) {
      timed_out = true;
      simulator.clear_pending();
      return;
    }
    simulator.schedule_after(sim::SimTime::seconds(1), poll);
  };
  simulator.schedule_at(t_event + sim::SimTime::seconds(1), poll);

  simulator.run_until(scenario.max_sim_time + sim::SimTime::seconds(10));
  if (timed_out || simulator.pending() > 0) {
    throw std::runtime_error{"ls scenario did not converge in max_sim_time"};
  }

  const sim::SimTime end = simulator.now();
  detector.finalize(end);

  // ---- Metrics ---------------------------------------------------------
  ExperimentOutcome out;
  out.destination = destination;
  out.failed_link = failed_link;
  out.initial_convergence_s = initial_convergence_s;
  out.events_fired = simulator.events_fired();

  metrics::RunMetrics& m = out.metrics;
  m.event_at = t_event;
  const auto last_update = collector.last_update_at(t_event);
  m.last_update_at = last_update.value_or(t_event);
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
