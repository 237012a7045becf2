// Internal: the one experiment skeleton behind run_experiment (BGP),
// run_dv_experiment and run_ls_experiment.
//
// Every driver runs the same trial: build the topology, pick the
// destination and the failed link, wire the data plane, the loop detectors
// and the traffic generator, converge cold (or restore a converged
// prelude), start CBR traffic, inject the event, poll until the network is
// quiet, and measure. run_driver<Protocol> is that recipe, written once.
// The protocol trait holds only what differs between BGP, DV and LS:
//
//   Spec                    the scenario struct
//   kKind, kSpecName, kTag  snapshot driver kind; argument- and run-error
//                           prefixes ("Scenario", "" for BGP)
//   kPollPeriod             quiescence poll period (ProtocolDefaults: 1 s)
//   prelude_hash            the public *_prelude_hash
//   validate(spec)          protocol-specific argument checks
//   Protocol(spec)          builds `topo` (and whatever must outlive it)
//   start(spec, simulator, root, destination)
//                           builds the network the trait owns, returns it
//   set_hooks(simulator, collector, trace, oracle)
//                           wires the network's hooks to the run's sinks
//   cold_prelude(...)       converges from an empty network
//   stable(simulator)       is the control plane quiet?
//   inject(...)             applies the event at t_event
//
// ProtocolDefaults supplies the rest for a single-prefix protocol with no
// state of its own in the snapshot: prefix_count(), origins(),
// complete_context(), complete_view(), save_extras()/restore_extras(),
// initial_convergence_s(), last_update_at() and fill_metrics().
//
// The pinned outputs depend on this order, so keep it: the plane's FIB
// observer subscribes before the loop detectors and the detectors before
// the oracle; the event, the snapshot probe and the first poll are
// scheduled in that order (each draws its event seq); the RNG child
// labels are "scenario" and "traffic"; the snapshot payload is the
// prologue, the substrate, then the protocol's extras.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/selection.hpp"
#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "metrics/loop_detector.hpp"
#include "metrics/trace.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core::detail {

/// The prefix of single-prefix runs, and prefix 0 of multi-prefix ones.
inline constexpr net::Prefix kPrefix = 0;

/// Defaults for a single-prefix protocol with no state of its own in the
/// snapshot. A trait hides the members it replaces.
struct ProtocolDefaults {
  static constexpr sim::SimTime kPollPeriod = sim::SimTime::seconds(1);

  [[nodiscard]] std::size_t prefix_count() const { return 1; }
  /// The origin of each prefix; empty for a single prefix.
  [[nodiscard]] const std::vector<net::NodeId>& origins() const {
    static const std::vector<net::NodeId> kNone;
    return kNone;
  }
  /// Adds the protocol's part of the oracle context and quiescent view
  /// (the skeleton fills topology, destination and forwarding state; the
  /// single-prefix defaults need nothing more).
  void complete_context(check::Context&) const {}
  void complete_view(check::QuiescentView&, net::NodeId) const {}
  void save_extras(snap::Writer&) const {}
  void restore_extras(snap::Reader&) {}
  [[nodiscard]] double initial_convergence_s(
      const sim::Simulator& simulator) const {
    return simulator.now().as_seconds();
  }
  /// The end of the convergence clock: the last update sent after the
  /// event.
  [[nodiscard]] sim::SimTime last_update_at(const metrics::Collector& collector,
                                            sim::SimTime t_event) const {
    return collector.last_update_at(t_event).value_or(t_event);
  }
  void fill_metrics(metrics::RunMetrics&) const {}
};

/// Serialize the shared run state (prologue + substrate) into `w`. The
/// protocol appends its extras afterwards.
template <typename Network>
void save_run_state(snap::Writer& w, const sim::Simulator& simulator,
                    const Network& network, const fwd::DataPlane& plane,
                    const fwd::TrafficGenerator& traffic,
                    const metrics::Collector& collector) {
  w.i64(simulator.now().as_micros());
  w.u64(simulator.events_fired());
  w.u64(simulator.event_seq());
  // v3: the live pending-event multiset as sorted (time µs, seq) pairs
  // (slot/generation state is an allocation artifact, deliberately
  // excluded). Unpassed silent MRAI deadlines are listed like queued
  // events. The list holds control events only: the external slot belongs
  // to the data plane, whose hop bridge and source ring (the traffic
  // ticks) carry their own (time, seq) in the plane's and the generator's
  // sections, and are re-armed from there.
  const auto pending = simulator.pending_entries();
  w.u64(pending.size());
  for (const auto& [time_us, seq] : pending) {
    w.i64(time_us);
    w.u64(seq);
  }
  network.save_state(w);
  plane.save_state(w);
  traffic.save_state(w);
  collector.save_state(w);
}

/// Inverse of save_run_state. The protocol reads its extras from `r` after
/// this returns.
template <typename Network>
void restore_run_state(snap::Reader& r, sim::Simulator& simulator,
                       Network& network, fwd::DataPlane& plane,
                       fwd::TrafficGenerator& traffic,
                       metrics::Collector& collector) {
  const sim::SimTime now = sim::SimTime::micros(r.i64());
  const std::uint64_t fired = r.u64();
  const std::uint64_t seq = r.u64();
  simulator.restore_clock(now, fired, seq);
  // Scheduled closures cannot be rebuilt from bytes, so the pending list
  // is verified, not restored: the live queue must already hold exactly
  // the recorded (time, seq) multiset — trivially true for a fresh
  // restore at quiescence (both empty) and for an in-place restore whose
  // closures never left the queue. (Traffic ticks are not closures: the
  // generator section below restores them with the plane's source ring.)
  // A mismatch means the snapshot is being fed to a simulator in a
  // different scheduling state; diverging silently here would corrupt
  // determinism, so refuse loudly.
  const std::uint64_t n_pending = r.u64();
  const auto live = simulator.pending_entries();
  if (live.size() != n_pending) {
    throw std::runtime_error{
        "restore_run_state: snapshot records " + std::to_string(n_pending) +
        " pending events, the live queue holds " +
        std::to_string(live.size())};
  }
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::int64_t time_us = r.i64();
    const std::uint64_t seq_i = r.u64();
    if (live[i].first != time_us || live[i].second != seq_i) {
      throw std::runtime_error{
          "restore_run_state: pending event " + std::to_string(i) +
          " mismatch: snapshot (" + std::to_string(time_us) + " us, seq " +
          std::to_string(seq_i) + ") vs live (" +
          std::to_string(live[i].first) + " us, seq " +
          std::to_string(live[i].second) + ")"};
    }
  }
  network.restore_state(r);
  plane.restore_state(r);
  traffic.restore_state(r);
  collector.restore_state(r);
}

/// Refuse a warm start whose snapshot identity does not match the scenario
/// about to run. Every rejection is a precise std::invalid_argument.
inline void require_meta_match(const snap::SnapshotMeta& meta,
                               snap::DriverKind driver,
                               std::uint64_t topology_hash,
                               std::uint64_t config_hash, std::uint64_t seed,
                               net::NodeId destination, bool originated) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument{"warm start rejected: " + what};
  };
  if (meta.driver != driver) {
    fail(std::string{"snapshot was written by the '"} +
         snap::to_string(meta.driver) + "' driver, this scenario runs '" +
         snap::to_string(driver) + "'");
  }
  if (!meta.quiescent) {
    fail("snapshot was not taken at quiescence (mid-run snapshots cannot "
         "seed a fresh object graph)");
  }
  if (meta.topology_hash != topology_hash) {
    fail("topology hash " + std::to_string(meta.topology_hash) +
         " does not match this scenario's topology (" +
         std::to_string(topology_hash) + ")");
  }
  if (meta.config_hash != config_hash) {
    fail("config hash " + std::to_string(meta.config_hash) +
         " does not match this scenario's prelude hash (" +
         std::to_string(config_hash) + ")");
  }
  if (meta.seed != seed) {
    fail("snapshot seed " + std::to_string(meta.seed) +
         " != scenario seed " + std::to_string(seed));
  }
  if (meta.destination != destination) {
    fail("snapshot destination " + std::to_string(meta.destination) +
         " != scenario destination " + std::to_string(destination));
  }
  if (meta.originated != originated) {
    fail(meta.originated
             ? "snapshot prelude originated the prefix, this scenario's "
               "does not (Tup)"
             : "snapshot prelude did not originate the prefix (Tup), this "
               "scenario's does");
  }
}

/// Records each loop of `prefix` as it forms and resolves.
inline metrics::LoopDetector::Observer trace_loops(
    metrics::TraceRecorder* trace, net::Prefix prefix) {
  return [trace, prefix](const metrics::LoopRecord& r, bool formed) {
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
        net::kInvalidNode, net::kInvalidNode, prefix, members});
  };
}

/// Run one trial of `spec` under protocol P. See the header comment.
template <typename P>
ExperimentOutcome run_driver(const typename P::Spec& spec) {
  if (spec.settle_margin <= spec.traffic_lead) {
    throw std::invalid_argument{std::string{P::kSpecName} +
                                ": settle_margin must exceed traffic_lead"};
  }
  P::validate(spec);

  // The protocol's state comes first, so it outlives everything below
  // (BGP's path arena must outlive every holder of a path).
  P proto{spec};
  net::Topology& topo = proto.topo;
  sim::Rng root{spec.seed};
  sim::Rng scenario_rng = root.child("scenario");

  const net::NodeId destination =
      choose_destination(spec.topology.kind, spec.event, spec.destination,
                         topo, scenario_rng);
  std::optional<net::LinkId> failed_link;
  if (spec.event == EventKind::kTlong || spec.event == EventKind::kFlap) {
    failed_link = choose_tlong_link(spec.topology.kind, spec.topology.size,
                                    spec.tlong_link, topo, destination,
                                    scenario_rng);
  }

  sim::Simulator simulator;
  auto& network = proto.start(spec, simulator, root, destination);
  const std::size_t prefix_count = proto.prefix_count();
  const bool multi = prefix_count > 1;
  metrics::Collector collector;
  if (multi) collector.enable_prefix_lanes(prefix_count);
  metrics::TraceRecorder* trace = nullptr;
  if constexpr (requires { spec.trace; }) trace = spec.trace;
  check::Oracle* oracle = nullptr;
  if constexpr (requires { spec.oracle; }) oracle = spec.oracle;
  if (oracle) {
    check::Context context;
    context.topology = &topo;
    context.destination = destination;
    proto.complete_context(context);
    oracle->arm(context);
  }
  proto.set_hooks(simulator, collector, trace, oracle);
  // The expiries that passed silently still count as oracle observations,
  // however the run ends (a thrown run's count is part of its verdict).
  struct SilentExpiries {
    check::Oracle* oracle;
    const sim::Simulator& simulator;
    ~SilentExpiries() {
      if (oracle) oracle->on_silent_mrai_expiries(simulator.deadlines_passed());
    }
  } silent_expiries{oracle, simulator};

  fwd::DataPlane plane{simulator, topo, network.fibs(),
                       multi ? fwd::DataPlaneOptions{.destinations =
                                                         proto.origins()}
                             : fwd::DataPlaneOptions::single(destination)};
  plane.set_fate_sink(&collector);

  // One loop detector per prefix, fed by one observer per FIB. FIB
  // observers accumulate, so the plane (subscribed at construction), the
  // detectors and the oracle all see every change, in that order.
  std::vector<metrics::LoopDetector> detectors(
      prefix_count, metrics::LoopDetector{topo.node_count()});
  metrics::LoopDetector::attach(simulator, network.fibs(), detectors);
  if (oracle) oracle->observe_fibs(simulator, network.fibs());
  if (trace) {
    for (std::size_t p = 0; p < prefix_count; ++p) {
      detectors[p].set_observer(
          trace_loops(trace, static_cast<net::Prefix>(p)));
    }
  }

  fwd::TrafficConfig traffic_config = spec.traffic;
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
  const std::uint64_t config_hash = P::prelude_hash(spec);
  const bool prelude_originated = spec.event != EventKind::kTup;
  const auto capture = [&](bool quiescent) {
    snap::Writer w;
    save_run_state(w, simulator, network, plane, traffic, collector);
    proto.save_extras(w);
    snap::SnapshotMeta meta;
    meta.driver = P::kKind;
    meta.topology_hash = topology_hash;
    meta.config_hash = config_hash;
    meta.seed = spec.seed;
    meta.destination = destination;
    meta.originated = prelude_originated;
    meta.quiescent = quiescent;
    meta.sim_time = simulator.now();
    return snap::Snapshot{std::move(meta), std::move(w).take()};
  };
  const auto restore = [&](const snap::Snapshot& snapshot) {
    snap::Reader r{snapshot.payload()};
    restore_run_state(r, simulator, network, plane, traffic, collector);
    proto.restore_extras(r);
    r.finish();
  };

  if (spec.warm_start) {
    require_meta_match(spec.warm_start->meta(), P::kKind, topology_hash,
                       config_hash, spec.seed, destination,
                       prelude_originated);
    restore(*spec.warm_start);
    // Prove the restore bit-exact: re-serializing the restored graph must
    // reproduce the snapshot's content hash.
    const snap::Snapshot echo = capture(/*quiescent=*/true);
    if (oracle) {
      oracle->on_restored(spec.warm_start->content_hash(),
                          echo.content_hash(), simulator.now());
    } else if (echo.content_hash() != spec.warm_start->content_hash()) {
      throw std::runtime_error{
          std::string{P::kTag} +
          "warm start restore is not bit-exact: restored state "
          "re-serializes to a different content hash"};
    }
  } else {
    proto.cold_prelude(spec, simulator, destination, prelude_originated);
  }
  const double initial_convergence_s = proto.initial_convergence_s(simulator);

  if (spec.save_converged) *spec.save_converged = capture(/*quiescent=*/true);

  const auto quiescent_view = [&] {
    check::QuiescentView view;
    view.fib_next_hop = [&network](net::NodeId n) {
      return network.fibs()[n].next_hop(kPrefix);
    };
    if (multi) {
      view.fib_next_hop_for = [&network](net::NodeId n, net::Prefix p) {
        return network.fibs()[n].next_hop(p);
      };
    }
    proto.complete_view(view, destination);
    return view;
  };
  if (oracle) oracle->at_quiescence(quiescent_view(), simulator.now());

  // ---- Phase 2: traffic + event + convergence -------------------------
  const sim::SimTime t_event = simulator.now() + spec.settle_margin;
  const sim::SimTime t_traffic = t_event - spec.traffic_lead;

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
          destination, net::kInvalidNode, kPrefix, to_string(spec.event)});
    }
    proto.inject(spec, simulator, destination, failed_link);
  });

  // Mid-run serialize/deserialize probe. kNoop and kVerify schedule the
  // *same* event (so their event streams stay comparable); only kVerify
  // does work in it: save, restore in place, re-save, and fail the run if
  // the two byte streams differ. A correct codec makes this a perfect
  // no-op — the rest of the run is bit-identical to the kNoop control.
  if (spec.snap_roundtrip != SnapRoundtrip::kOff) {
    simulator.schedule_at(t_event + spec.snap_roundtrip_after, [&] {
      if (spec.snap_roundtrip != SnapRoundtrip::kVerify) return;
      const snap::Snapshot before = capture(/*quiescent=*/false);
      restore(before);
      const snap::Snapshot after = capture(/*quiescent=*/false);
      if (before.content_hash() != after.content_hash()) {
        if (oracle) {
          oracle->on_restored(before.content_hash(), after.content_hash(),
                              simulator.now());
        }
        throw std::runtime_error{
            std::string{P::kTag} +
            "snapshot round-trip diverged mid-run: in-place restore did "
            "not reproduce the saved state byte-for-byte"};
      }
    });
  }

  // Poll for control-plane quiescence. When the control plane settles,
  // stop traffic, let in-flight packets die out (TTL lifetime is 256 ms),
  // then cancel leftover silent timers. For a flap, polling must not
  // begin until the restore has fired: the network can quiesce mid-flap,
  // and clear_pending would cancel the restore.
  bool done = false;
  const auto drain = sim::SimTime::seconds(2);
  std::function<void()> poll = [&] {
    if (proto.stable(simulator)) {
      done = true;
      traffic.stop();
      simulator.schedule_after(drain, [&] { simulator.clear_pending(); });
      return;
    }
    if (simulator.now() >= spec.max_sim_time) {
      simulator.clear_pending();  // timed out
      return;
    }
    simulator.schedule_after(P::kPollPeriod, poll);
  };
  sim::SimTime poll_start = t_event + P::kPollPeriod;
  if constexpr (requires { spec.flap_interval; }) {
    if (spec.event == EventKind::kFlap) poll_start += spec.flap_interval;
  }
  simulator.schedule_at(poll_start, poll);

  simulator.run_until(spec.max_sim_time + sim::SimTime::seconds(10));
  if (!done) {
    throw std::runtime_error{std::string{P::kTag} +
                             "scenario did not converge within max_sim_time"};
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
  m.last_update_at = proto.last_update_at(collector, t_event);
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
  proto.fill_metrics(m);

  const auto profile_end = m.last_update_at + sim::SimTime::seconds(1);
  m.update_activity_1s =
      collector.update_activity(t_event, profile_end, sim::SimTime::seconds(1));
  m.exhaustion_activity_1s = collector.exhaustion_activity(
      t_event, profile_end, sim::SimTime::seconds(1));

  // Headline loop metrics aggregate the whole table, prefix-major.
  for (const auto& d : detectors) {
    m.loops.insert(m.loops.end(), d.records().begin(), d.records().end());
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

}  // namespace bgpsim::core::detail
