#include "core/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/path_arena.hpp"
#include "check/oracle.hpp"
#include "core/snap_support.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "core/selection.hpp"
#include "net/relationships.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"
#include "topo/generators.hpp"
#include "topo/internet.hpp"

namespace bgpsim::core {
namespace {

constexpr net::Prefix kPrefix = 0;

/// Capture the complete BGP run state into a snapshot with full identity
/// metadata. `quiescent` must only be true when the event queue is empty.
snap::Snapshot capture_bgp(const sim::Simulator& simulator,
                           const bgp::BgpNetwork& network,
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
  meta.driver = snap::DriverKind::kBgp;
  meta.topology_hash = topology_hash;
  meta.config_hash = config_hash;
  meta.seed = seed;
  meta.destination = destination;
  meta.originated = originated;
  meta.quiescent = quiescent;
  meta.sim_time = simulator.now();
  return snap::Snapshot{std::move(meta), std::move(w).take()};
}

void restore_bgp(const snap::Snapshot& snapshot, sim::Simulator& simulator,
                 bgp::BgpNetwork& network, fwd::DataPlane& plane,
                 fwd::TrafficGenerator& traffic,
                 metrics::Collector& collector) {
  snap::Reader r{snapshot.payload()};
  detail::restore_run_state(r, simulator, network, plane, traffic, collector);
  r.finish();
}

}  // namespace

std::uint64_t scenario_prelude_hash(const Scenario& scenario) {
  snap::Hasher h;
  h.mix(static_cast<std::uint64_t>(scenario.topology.kind));
  h.mix(scenario.topology.size);
  h.mix(scenario.topology.topo_seed);
  if (scenario.topology.kind == TopologyKind::kRelFile) {
    // Mixed only for this kind so every pre-existing prelude hash is
    // unchanged (warm-start caches stay valid across this addition).
    std::uint64_t path_hash = 1469598103934665603ULL;  // FNV-1a
    for (const unsigned char c : scenario.topology.rel_file) {
      path_hash ^= c;
      path_hash *= 1099511628211ULL;
    }
    h.mix(path_hash);
  }
  h.mix(scenario.policy_routing ? 1 : 0);
  h.mix_time(scenario.bgp.mrai);
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof scenario.bgp.jitter_lo);
  std::memcpy(&bits, &scenario.bgp.jitter_lo, sizeof bits);
  h.mix(bits);
  std::memcpy(&bits, &scenario.bgp.jitter_hi, sizeof bits);
  h.mix(bits);
  h.mix((scenario.bgp.ssld ? 1U : 0U) | (scenario.bgp.wrate ? 2U : 0U) |
        (scenario.bgp.assertion ? 4U : 0U) |
        (scenario.bgp.ghost_flushing ? 8U : 0U));
  h.mix_time(scenario.bgp.backup_caution);
  h.mix_time(scenario.processing.min);
  h.mix_time(scenario.processing.max);
  h.mix(scenario.destination.value_or(net::kInvalidNode));
  // Whether the prelude includes the origination (everything but Tup).
  h.mix(scenario.event != EventKind::kTup ? 1 : 0);
  // On generator/file topologies without a fixed destination, the
  // destination *choice* depends on whether a survivable-link filter
  // applies (Tlong / Flap), so those preludes are distinct even at equal
  // seeds.
  const bool link_filter =
      policy_capable(scenario.topology.kind) && !scenario.destination &&
      (scenario.event == EventKind::kTlong ||
       scenario.event == EventKind::kFlap);
  h.mix(link_filter ? 1 : 0);
  if (scenario.prefixes > 1) {
    // Mixed only for multi-prefix runs, so every pre-existing
    // single-prefix prelude hash (and warm-start cache) is unchanged.
    h.mix(scenario.prefixes);
    h.mix(scenario.origins.size());
    for (const net::NodeId o : scenario.origins) h.mix(o);
  }
  return h.value();
}

ExperimentOutcome run_experiment(const Scenario& scenario) {
  if (scenario.settle_margin <= scenario.traffic_lead) {
    throw std::invalid_argument{
        "Scenario: settle_margin must exceed traffic_lead"};
  }

  // The trial's path arena: every path this run builds — including ones
  // decoded from a warm-start snapshot — lands here, so structurally-equal
  // paths are pointer-equal for the run's whole lifetime. Declared first
  // so it outlives everything that holds a path; nothing that outlives the
  // trial (the caller's oracle, the outcome) keeps one.
  bgp::PathArena paths;

  net::Topology topo;
  net::RelationshipTable relationships;
  if (scenario.policy_routing) {
    if (!policy_capable(scenario.topology.kind)) {
      throw std::invalid_argument{
          "Scenario: policy_routing requires an Internet, AS-Graph, or "
          "relationship-file topology"};
    }
    auto annotated = scenario.topology.build_annotated();
    topo = std::move(annotated.topology);
    relationships = std::move(annotated.relationships);
  } else {
    topo = scenario.topology.build();
  }
  sim::Rng root{scenario.seed};
  sim::Rng scenario_rng = root.child("scenario");

  const net::NodeId destination =
      choose_destination(scenario.topology.kind, scenario.event,
                         scenario.destination, topo, scenario_rng);
  std::optional<net::LinkId> failed_link;
  if (scenario.event == EventKind::kTlong ||
      scenario.event == EventKind::kFlap) {
    failed_link =
        choose_tlong_link(scenario.topology.kind, scenario.topology.size,
                          scenario.tlong_link, topo, destination,
                          scenario_rng);
  }

  // ---- Multi-prefix table ----------------------------------------------
  // prefix 0 always originates at the destination; prefixes >= 1 cycle
  // over scenario.origins (empty: everything at the destination — the
  // fully correlated full table).
  const std::size_t prefix_count = std::max<std::size_t>(scenario.prefixes, 1);
  if (prefix_count > net::kMaxPrefixes) {
    throw std::invalid_argument{
        "Scenario: prefixes must not exceed " +
        std::to_string(net::kMaxPrefixes)};
  }
  const bool multi = prefix_count > 1;
  std::vector<net::NodeId> prefix_origins;
  std::vector<net::Prefix> dest_prefixes;  // originated by the destination
  std::map<net::NodeId, std::vector<net::Prefix>> origin_groups;
  if (multi) {
    prefix_origins.assign(prefix_count, destination);
    for (std::size_t i = 1; i < prefix_count; ++i) {
      if (!scenario.origins.empty()) {
        prefix_origins[i] = scenario.origins[(i - 1) % scenario.origins.size()];
      }
      if (prefix_origins[i] >= topo.node_count()) {
        throw std::invalid_argument{
            "Scenario: prefix origin " + std::to_string(prefix_origins[i]) +
            " is not a node of the topology"};
      }
    }
    for (std::size_t p = 0; p < prefix_count; ++p) {
      origin_groups[prefix_origins[p]].push_back(static_cast<net::Prefix>(p));
      if (prefix_origins[p] == destination) {
        dest_prefixes.push_back(static_cast<net::Prefix>(p));
      }
    }
  }

  sim::Simulator simulator;
  bgp::BgpConfig bgp_config = scenario.bgp;
  if (scenario.policy_routing) bgp_config.policy = &relationships;
  if (multi) bgp_config.multiprefix = true;
  bgp::BgpNetwork network{simulator, topo, bgp_config, scenario.processing,
                          root, paths};
  metrics::Collector collector;
  if (multi) collector.enable_prefix_lanes(prefix_count);
  metrics::TraceRecorder* trace = scenario.trace;
  check::Oracle* oracle = scenario.oracle;
  if (oracle) {
    oracle->arm(check::Context{
        .topology = &topo,
        .bgp = bgp_config,
        .prefix = kPrefix,
        .destination = destination,
        .policy_routing = scenario.policy_routing,
        .relationships = scenario.policy_routing ? &relationships : nullptr,
        .prefix_count = prefix_count,  // 1 and no origins unless multi
        .origins = prefix_origins});
  }
  bgp::Speaker::Hooks hooks;
  hooks.on_update_sent = [&collector, &simulator, trace, oracle](
                             net::NodeId from, net::NodeId to,
                             const bgp::UpdateMsg& msg) {
    collector.note_update_sent(simulator.now(), msg.is_withdrawal());
    if (trace) {
      trace->record(metrics::TraceEvent{
          simulator.now(), metrics::TraceEventKind::kUpdateSent, from, to,
          msg.prefix, msg.to_string()});
    }
    if (oracle) oracle->on_update_sent(from, to, msg, simulator.now());
  };
  if (trace || oracle) {
    hooks.on_best_changed = [trace, oracle, &simulator](
                                net::NodeId node, net::Prefix prefix,
                                const std::optional<bgp::AsPath>& best) {
      if (trace) {
        trace->record(metrics::TraceEvent{
            simulator.now(), metrics::TraceEventKind::kBestChanged, node,
            net::kInvalidNode, prefix,
            best ? best->to_string() : "(unreachable)"});
      }
      // run_decision updates the FIB before firing this hook, so the
      // oracle's RIB/FIB cross-check sees current state here.
      if (oracle) oracle->on_route_installed(node, prefix, best,
                                             simulator.now());
    };
  }
  if (oracle) {
    hooks.on_update_received = [oracle, &simulator](net::NodeId node,
                                                    net::NodeId from,
                                                    const bgp::UpdateMsg& msg) {
      oracle->on_update_received(node, from, msg, simulator.now());
    };
    hooks.on_session_changed = [oracle, &simulator](net::NodeId node,
                                                    net::NodeId peer, bool up) {
      oracle->on_session_changed(node, peer, up, simulator.now());
    };
    hooks.on_mrai_expired = [oracle, &simulator](net::NodeId node,
                                                 net::NodeId peer,
                                                 net::Prefix prefix,
                                                 bool was_pending) {
      oracle->on_mrai_expired(node, peer, prefix, was_pending,
                              simulator.now());
    };
    // Only an invariant that reads expiries needs each one as an event.
    hooks.every_mrai_expiry = oracle->observes_mrai_expiries();
  }
  network.set_hooks(hooks);
  // The expiries that passed silently still count as oracle observations,
  // however the run ends (a thrown run's count is part of its verdict).
  struct SilentExpiries {
    check::Oracle* oracle;
    const sim::Simulator& simulator;
    ~SilentExpiries() {
      if (oracle) oracle->on_silent_mrai_expiries(simulator.deadlines_passed());
    }
  } silent_expiries{oracle, simulator};

  fwd::DataPlaneOptions plane_options =
      multi ? fwd::DataPlaneOptions{.destinations = prefix_origins}
            : fwd::DataPlaneOptions::single(destination);
  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       std::move(plane_options)};
  plane.set_fate_sink(&collector);

  // One loop detector per prefix, fed by one observer per FIB. FIB
  // observers accumulate, so the plane (subscribed at construction), the
  // detectors and the oracle all see every change, in that order.
  std::vector<metrics::LoopDetector> detectors(
      prefix_count, metrics::LoopDetector{topo.node_count()});
  metrics::LoopDetector::attach(simulator, network.fibs(), detectors);
  metrics::LoopDetector& detector = detectors.front();
  if (oracle) oracle->observe_fibs(simulator, network.fibs());
  if (trace) {
    detector.set_observer([trace](const metrics::LoopRecord& r, bool formed) {
      std::string members = "{";
      for (std::size_t i = 0; i < r.members.size(); ++i) {
        if (i) members += ' ';
        members += std::to_string(r.members[i]);
      }
      members += '}';
      trace->record(metrics::TraceEvent{
          formed ? r.formed_at : r.resolved_at.value_or(r.formed_at),
          formed ? metrics::TraceEventKind::kLoopFormed
                 : metrics::TraceEventKind::kLoopResolved,
          net::kInvalidNode, net::kInvalidNode, kPrefix, members});
    });
  }

  fwd::TrafficConfig traffic_config = scenario.traffic;
  if (multi) traffic_config.prefix_count = prefix_count;
  fwd::TrafficGenerator traffic{simulator, plane, traffic_config,
                                root.child("traffic")};
  traffic.set_send_hook([&](net::NodeId, net::Prefix p, sim::SimTime when) {
    collector.note_packet_sent(when);
    collector.note_packet_sent_for(p);  // no-op unless lanes are enabled
  });

  // ---- Phase 1: cold-start convergence or warm start --------------------
  // (For Tup the network starts empty — the origination *is* the event.)
  const std::uint64_t topology_hash = snap::hash_topology(topo);
  const std::uint64_t config_hash = scenario_prelude_hash(scenario);
  const bool prelude_originated = scenario.event != EventKind::kTup;

  if (scenario.warm_start) {
    detail::require_meta_match(scenario.warm_start->meta(),
                               snap::DriverKind::kBgp, topology_hash,
                               config_hash, scenario.seed, destination,
                               prelude_originated);
    restore_bgp(*scenario.warm_start, simulator, network, plane, traffic,
                collector);
    // Prove the restore bit-exact: re-serializing the restored graph must
    // reproduce the snapshot's content hash.
    const snap::Snapshot echo =
        capture_bgp(simulator, network, plane, traffic, collector,
                    topology_hash, config_hash, scenario.seed, destination,
                    prelude_originated, /*quiescent=*/true);
    if (oracle) {
      oracle->on_restored(scenario.warm_start->content_hash(),
                          echo.content_hash(), simulator.now());
    } else if (echo.content_hash() != scenario.warm_start->content_hash()) {
      throw std::runtime_error{
          "warm start restore is not bit-exact: restored state "
          "re-serializes to a different content hash"};
    }
  } else {
    if (multi) {
      // Non-destination origins always converge in the prelude (they are
      // background table state); the destination's own prefixes join
      // unless the origination *is* the event (Tup).
      simulator.schedule_at(sim::SimTime::zero(), [&] {
        for (const auto& [origin, group] : origin_groups) {
          if (origin == destination && !prelude_originated) continue;
          network.originate_batch(origin, group);
        }
      });
    } else if (prelude_originated) {
      simulator.schedule_at(sim::SimTime::zero(),
                            [&] { network.originate(destination, kPrefix); });
    }
    simulator.run_until(scenario.max_sim_time);
    if (simulator.pending() > 0 || network.busy()) {
      throw std::runtime_error{"initial convergence exceeded max_sim_time"};
    }
  }
  const double initial_convergence_s = simulator.now().as_seconds();

  if (scenario.save_converged) {
    *scenario.save_converged =
        capture_bgp(simulator, network, plane, traffic, collector,
                    topology_hash, config_hash, scenario.seed, destination,
                    prelude_originated, /*quiescent=*/true);
  }

  const auto quiescent_view = [&]() -> check::QuiescentView {
    check::QuiescentView view;
    view.loc_path = [&network](net::NodeId n) {
      return network.speaker(n).loc_rib().get(kPrefix);
    };
    view.fib_next_hop = [&network](net::NodeId n) {
      return network.fibs()[n].next_hop(kPrefix);
    };
    view.origin_up = network.speaker(destination).originates(kPrefix);
    if (multi) {
      view.loc_path_for = [&network](net::NodeId n, net::Prefix p) {
        return network.speaker(n).loc_rib().get(p);
      };
      view.fib_next_hop_for = [&network](net::NodeId n, net::Prefix p) {
        return network.fibs()[n].next_hop(p);
      };
      view.origin_up_for = [&network, &prefix_origins](net::Prefix p) {
        return network.speaker(prefix_origins[p]).originates(p);
      };
    }
    return view;
  };
  if (oracle) oracle->at_quiescence(quiescent_view(), simulator.now());

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = simulator.now() + scenario.settle_margin;
  const sim::SimTime t_traffic = t_event - scenario.traffic_lead;

  std::vector<net::NodeId> sources;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (n != destination) sources.push_back(n);
  }
  traffic.start(sources, t_traffic);

  simulator.schedule_at(t_event, [&] {
    // Measure only post-event loops, on every prefix's detector.
    for (auto& d : detectors) d.clear_history();
    if (trace) {
      trace->record(metrics::TraceEvent{
          simulator.now(), metrics::TraceEventKind::kEventInjected,
          destination, net::kInvalidNode, kPrefix,
          to_string(scenario.event)});
    }
    switch (scenario.event) {
      case EventKind::kTdown:
        // Multi-prefix: the correlated failure — the destination withdraws
        // its whole originated slice of the table in one batched event.
        if (multi) {
          network.inject_tdown_batch(destination, dest_prefixes);
        } else {
          network.inject_tdown(destination, kPrefix);
        }
        break;
      case EventKind::kTlong:
        network.inject_link_failure(*failed_link);
        break;
      case EventKind::kTup:
        if (multi) {
          network.originate_batch(destination, dest_prefixes);
        } else {
          network.originate(destination, kPrefix);
        }
        break;
      case EventKind::kFlap:
        network.inject_link_failure(*failed_link);
        simulator.schedule_after(scenario.flap_interval, [&] {
          network.transport().restore_link(*failed_link);
        });
        break;
    }
  });

  // Mid-run serialize/deserialize probe. kNoop and kVerify schedule the
  // *same* event (so their event streams stay comparable); only kVerify
  // does work in it: save, restore in place, re-save, and fail the run if
  // the two byte streams differ. A correct codec makes this a perfect
  // no-op — the rest of the run is bit-identical to the kNoop control.
  if (scenario.snap_roundtrip != SnapRoundtrip::kOff) {
    simulator.schedule_at(t_event + scenario.snap_roundtrip_after, [&] {
      if (scenario.snap_roundtrip != SnapRoundtrip::kVerify) return;
      const snap::Snapshot before =
          capture_bgp(simulator, network, plane, traffic, collector,
                      topology_hash, config_hash, scenario.seed, destination,
                      prelude_originated, /*quiescent=*/false);
      restore_bgp(before, simulator, network, plane, traffic, collector);
      const snap::Snapshot after =
          capture_bgp(simulator, network, plane, traffic, collector,
                      topology_hash, config_hash, scenario.seed, destination,
                      prelude_originated, /*quiescent=*/false);
      if (before.content_hash() != after.content_hash()) {
        if (oracle) {
          oracle->on_restored(before.content_hash(), after.content_hash(),
                              simulator.now());
        }
        throw std::runtime_error{
            "snapshot round-trip diverged mid-run: in-place restore did "
            "not reproduce the saved state byte-for-byte"};
      }
    });
  }

  // Poll for control-plane quiescence once per simulated second. When the
  // control plane settles, stop traffic, let in-flight packets die out
  // (TTL lifetime is 256 ms), then cancel leftover silent timers. For a
  // flap, polling must not begin until the restore has fired: the network
  // can quiesce mid-flap, and clear_pending would cancel the restore.
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
  sim::SimTime poll_start = t_event + sim::SimTime::seconds(1);
  if (scenario.event == EventKind::kFlap) poll_start += scenario.flap_interval;
  simulator.schedule_at(poll_start, poll);

  simulator.run_until(scenario.max_sim_time + sim::SimTime::seconds(10));
  if (timed_out || simulator.pending() > 0) {
    throw std::runtime_error{"scenario did not converge within max_sim_time"};
  }

  const sim::SimTime end = simulator.now();
  for (auto& d : detectors) d.finalize(end);
  if (oracle) oracle->at_quiescence(quiescent_view(), end);

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
  m.bgp = network.total_counters();

  const auto profile_end = m.last_update_at + sim::SimTime::seconds(1);
  m.update_activity_1s =
      collector.update_activity(t_event, profile_end, sim::SimTime::seconds(1));
  m.exhaustion_activity_1s = collector.exhaustion_activity(
      t_event, profile_end, sim::SimTime::seconds(1));

  m.loops = detector.records();
  if (multi) {
    // Headline loop metrics aggregate the whole table, prefix-major.
    for (std::size_t p = 1; p < prefix_count; ++p) {
      const auto& recs = detectors[p].records();
      m.loops.insert(m.loops.end(), recs.begin(), recs.end());
    }
  }
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
  if (multi) {
    m.per_prefix.resize(prefix_count);
    const auto& lanes = collector.prefix_lanes();
    for (std::size_t p = 0; p < prefix_count; ++p) {
      metrics::RunMetrics::PrefixLane& lane = m.per_prefix[p];
      const auto& recs = detectors[p].records();
      lane.loops_formed = recs.size();
      for (const auto& loop : recs) {
        lane.max_loop_duration_s =
            std::max(lane.max_loop_duration_s, loop.duration_seconds(end));
      }
      lane.packets_sent = lanes[p].sent;
      lane.packets_delivered = lanes[p].delivered;
      lane.ttl_exhaustions = lanes[p].ttl_exhausted;
    }
  }
  return out;
}

}  // namespace bgpsim::core
