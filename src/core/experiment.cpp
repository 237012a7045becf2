#include "core/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/path_arena.hpp"
#include "core/driver.hpp"
#include "net/relationships.hpp"
#include "snap/codec.hpp"

namespace bgpsim::core {
namespace {

using detail::kPrefix;

/// The path-vector protocol: a BgpNetwork over a trial-owned path arena,
/// with Gao–Rexford relationships under policy routing and a multi-prefix
/// table of per-prefix origins.
struct BgpProtocol : detail::ProtocolDefaults {
  using Spec = Scenario;
  static constexpr snap::DriverKind kKind = snap::DriverKind::kBgp;
  static constexpr const char* kSpecName = "Scenario";
  static constexpr const char* kTag = "";

  static constexpr auto prelude_hash = &scenario_prelude_hash;

  static void validate(const Scenario& s) {
    if (s.policy_routing && !policy_capable(s.topology.kind)) {
      throw std::invalid_argument{
          "Scenario: policy_routing requires an Internet, AS-Graph, or "
          "relationship-file topology"};
    }
    if (s.prefixes > net::kMaxPrefixes) {
      throw std::invalid_argument{"Scenario: prefixes must not exceed " +
                                  std::to_string(net::kMaxPrefixes)};
    }
  }

  explicit BgpProtocol(const Scenario& s) {
    if (!s.policy_routing) {
      topo = s.topology.build();
      return;
    }
    auto annotated = s.topology.build_annotated();
    topo = std::move(annotated.topology);
    relationships = std::move(annotated.relationships);
  }

  bgp::BgpNetwork& start(const Scenario& s, sim::Simulator& simulator,
                         const sim::Rng& root, net::NodeId destination) {
    // prefix 0 always originates at the destination; prefixes >= 1 cycle
    // over s.origins (empty: everything at the destination — the fully
    // correlated full table).
    const std::size_t count = std::max<std::size_t>(s.prefixes, 1);
    if (count > 1) {
      prefix_origins.assign(count, destination);
      for (std::size_t i = 1; i < count; ++i) {
        if (!s.origins.empty()) {
          prefix_origins[i] = s.origins[(i - 1) % s.origins.size()];
        }
        if (prefix_origins[i] >= topo.node_count()) {
          throw std::invalid_argument{
              "Scenario: prefix origin " + std::to_string(prefix_origins[i]) +
              " is not a node of the topology"};
        }
      }
      for (std::size_t p = 0; p < count; ++p) {
        origin_groups[prefix_origins[p]].push_back(static_cast<net::Prefix>(p));
        if (prefix_origins[p] == destination) {
          dest_prefixes.push_back(static_cast<net::Prefix>(p));
        }
      }
    }
    config = s.bgp;
    if (s.policy_routing) config.policy = &relationships;
    return network.emplace(simulator, topo, config, s.processing, root, paths,
                           static_cast<std::uint32_t>(count));
  }

  [[nodiscard]] std::size_t prefix_count() const {
    return std::max<std::size_t>(prefix_origins.size(), 1);
  }
  [[nodiscard]] const std::vector<net::NodeId>& origins() const {
    return prefix_origins;
  }
  [[nodiscard]] bool multi() const { return !prefix_origins.empty(); }

  void set_hooks(sim::Simulator& simulator, metrics::Collector& collector,
                 metrics::TraceRecorder* trace, check::Oracle* oracle) {
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
      hooks.on_update_received = [oracle, &simulator](
                                     net::NodeId node, net::NodeId from,
                                     const bgp::UpdateMsg& msg) {
        oracle->on_update_received(node, from, msg, simulator.now());
      };
      hooks.on_session_changed = [oracle, &simulator](
                                     net::NodeId node, net::NodeId peer,
                                     bool up) {
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
    network->set_hooks(hooks);
  }

  void complete_context(check::Context& context) const {
    context.prefix_count = prefix_count();
    context.origins = prefix_origins;
    context.bgp = config;
    context.policy_routing = config.policy != nullptr;
    context.relationships = config.policy;
  }

  void complete_view(check::QuiescentView& view,
                     net::NodeId destination) const {
    const bgp::BgpNetwork& net = *network;
    view.loc_path = [&net](net::NodeId n) {
      return net.speaker(n).best_path(kPrefix);
    };
    view.origin_up = net.speaker(destination).originates(kPrefix);
    if (multi()) {
      view.loc_path_for = [&net](net::NodeId n, net::Prefix p) {
        return net.speaker(n).best_path(p);
      };
      view.origin_up_for = [&net, this](net::Prefix p) {
        return net.speaker(prefix_origins[p]).originates(p);
      };
    }
  }

  void cold_prelude(const Scenario& s, sim::Simulator& simulator,
                    net::NodeId destination, bool originated) {
    if (multi()) {
      // Non-destination origins always converge in the prelude (they are
      // background table state); the destination's own prefixes join
      // unless the origination *is* the event (Tup).
      simulator.schedule_at(sim::SimTime::zero(), [=, this] {
        for (const auto& [origin, group] : origin_groups) {
          if (origin == destination && !originated) continue;
          network->originate_batch(origin, group);
        }
      });
    } else if (originated) {
      simulator.schedule_at(sim::SimTime::zero(), [=, this] {
        network->originate(destination, kPrefix);
      });
    }
    simulator.run_until(s.max_sim_time);
    if (simulator.pending() > 0 || network->busy()) {
      throw std::runtime_error{"initial convergence exceeded max_sim_time"};
    }
  }

  [[nodiscard]] bool stable(const sim::Simulator&) const {
    return !network->busy();
  }

  void inject(const Scenario& s, sim::Simulator& simulator,
              net::NodeId destination, std::optional<net::LinkId> failed) {
    switch (s.event) {
      case EventKind::kTdown:
        // Multi-prefix: the correlated failure — the destination withdraws
        // its whole originated slice of the table in one batched event.
        if (multi()) {
          network->inject_tdown_batch(destination, dest_prefixes);
        } else {
          network->inject_tdown(destination, kPrefix);
        }
        break;
      case EventKind::kTlong:
        network->inject_link_failure(*failed);
        break;
      case EventKind::kTup:
        if (multi()) {
          network->originate_batch(destination, dest_prefixes);
        } else {
          network->originate(destination, kPrefix);
        }
        break;
      case EventKind::kFlap:
        network->inject_link_failure(*failed);
        simulator.schedule_after(s.flap_interval, [this, failed] {
          network->transport().restore_link(*failed);
        });
        break;
    }
  }

  void fill_metrics(metrics::RunMetrics& m) const {
    m.bgp = network->total_counters();
  }

  // The trial's path arena: every path this run builds — including ones
  // decoded from a warm-start snapshot — lands here, so structurally-equal
  // paths are pointer-equal for the run's whole lifetime. Declared first
  // so it outlives everything that holds a path; nothing that outlives the
  // trial (the caller's oracle, the outcome) keeps one.
  bgp::PathArena paths;
  net::Topology topo;
  net::RelationshipTable relationships;
  std::vector<net::NodeId> prefix_origins;  // empty for a single prefix
  std::vector<net::Prefix> dest_prefixes;   // originated by the destination
  std::map<net::NodeId, std::vector<net::Prefix>> origin_groups;
  bgp::BgpConfig config;
  std::optional<bgp::BgpNetwork> network;
};

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
  return detail::run_driver<BgpProtocol>(scenario);
}

}  // namespace bgpsim::core
