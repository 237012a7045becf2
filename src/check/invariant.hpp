// Runtime invariant checking: observer interface and violation record.
//
// The paper's claims are invariants over *transient* state — a speaker
// never adopts a path containing itself, an m-node loop persists at most
// (m-1)×MRAI, quiescent routing equals the policy-shortest-path fixed
// point. Invariants subscribe to speaker/FIB callbacks at event
// granularity and report every state that contradicts a claim, turning
// any simulation run into its own correctness oracle (see check::Oracle).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/config.hpp"
#include "bgp/messages.hpp"
#include "net/relationships.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace bgpsim::check {

/// One observed contradiction of an armed invariant.
struct Violation {
  std::string invariant;  // Invariant::name() of the reporter
  sim::SimTime at;        // simulation time of the observation
  net::NodeId node = net::kInvalidNode;  // kInvalidNode: network-wide
  std::string detail;

  /// "[mrai-legality] t=12.345s node 3: ..." — one line per violation.
  [[nodiscard]] std::string to_string() const;
};

/// Per-run facts fixed at arm time.
struct Context {
  const net::Topology* topology = nullptr;
  bgp::BgpConfig bgp;  // MRAI / jitter / enhancement flags
  net::Prefix prefix = 0;
  net::NodeId destination = net::kInvalidNode;
  /// Gao-Rexford policy routing: the hop-count-shortest reference does not
  /// apply (valley-free fixed points are longer); only loop-freedom is
  /// checked at quiescence then.
  bool policy_routing = false;
  /// Business relationships for policy runs (owned by the caller, alive
  /// for the whole run). Enables the valley-free path check; null for
  /// shortest-path runs.
  const net::RelationshipTable* relationships = nullptr;
  /// Multi-prefix runs: prefixes 0..prefix_count-1 are live; `origins[p]`
  /// names prefix p's origin AS. Both default to the single-prefix shape
  /// (count 1, empty origins → everything originates at `destination`).
  std::size_t prefix_count = 1;
  std::vector<net::NodeId> origins{};

  /// The origin AS of `p`: origins[p] when provided, else `destination`
  /// for every prefix in range, else kInvalidNode (origin unknown —
  /// origin-sensitive checks skip the prefix).
  [[nodiscard]] net::NodeId origin_of(net::Prefix p) const {
    if (p < origins.size()) return origins[p];
    if (p < prefix_count || p == prefix) return destination;
    return net::kInvalidNode;
  }
};

/// Read-only view of a quiescent network for the convergence checks.
/// Accessors are std::function so BGP and DV networks (and tests) can be
/// viewed without this layer depending on either network class.
struct QuiescentView {
  /// Selected Loc-RIB path of a node; nullptr = unreachable. Leave empty
  /// for protocols without AS paths (DV) — path checks are skipped then.
  std::function<const bgp::AsPath*(net::NodeId)> loc_path;
  /// FIB next hop of a node for the armed prefix.
  std::function<std::optional<net::NodeId>(net::NodeId)> fib_next_hop;
  /// Does the destination currently originate the prefix?
  bool origin_up = true;

  // ---- per-prefix accessors (multi-prefix runs; optional) ----
  /// When set, the quiescence checks run once per prefix in
  /// [0, Context::prefix_count) through these instead of the
  /// single-prefix accessors above.
  std::function<const bgp::AsPath*(net::NodeId, net::Prefix)> loc_path_for;
  std::function<std::optional<net::NodeId>(net::NodeId, net::Prefix)>
      fib_next_hop_for;
  /// Per-prefix origin-up flag; unset means origin_up applies to all.
  std::function<bool(net::Prefix)> origin_up_for;
};

/// Observer interface. Callbacks mirror the speaker/FIB hook points and
/// default to no-ops, so each invariant overrides only what it watches.
/// Violations flow through report(), whose sink the owning Oracle wires.
class Invariant {
 public:
  virtual ~Invariant() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before the run with the per-run facts.
  virtual void arm(const Context&) {}

  /// Loc-RIB best path changed (nullopt = destination now unreachable).
  virtual void on_route_installed(net::NodeId /*node*/, net::Prefix,
                                  const std::optional<bgp::AsPath>& /*best*/,
                                  sim::SimTime /*at*/) {}
  /// UPDATE handed to the transport.
  virtual void on_update_sent(net::NodeId /*from*/, net::NodeId /*to*/,
                              const bgp::UpdateMsg&, sim::SimTime /*at*/) {}
  /// UPDATE processed by the receiving speaker.
  virtual void on_update_received(net::NodeId /*node*/, net::NodeId /*from*/,
                                  const bgp::UpdateMsg&, sim::SimTime /*at*/) {
  }
  /// `node` observed its session to `peer` go up/down.
  virtual void on_session_changed(net::NodeId /*node*/, net::NodeId /*peer*/,
                                  bool /*up*/, sim::SimTime /*at*/) {}
  /// An MRAI timer fired at `node` toward `peer`.
  virtual void on_mrai_expired(net::NodeId /*node*/, net::NodeId /*peer*/,
                               net::Prefix, bool /*was_pending*/,
                               sim::SimTime /*at*/) {}
  /// Whether this invariant reads on_mrai_expired. While any armed
  /// invariant does, every MRAI timer runs as a queued event so each
  /// expiry arrives at its exact time; otherwise timers that hold no
  /// decision expire silently and reach no invariant. Defaults to true so
  /// an override of on_mrai_expired sees every expiry unasked.
  [[nodiscard]] virtual bool observes_mrai_expiries() const { return true; }
  /// `node`'s FIB entry for `prefix` changed.
  virtual void on_fib_changed(net::NodeId /*node*/, net::Prefix,
                              std::optional<net::NodeId> /*previous*/,
                              std::optional<net::NodeId> /*current*/,
                              sim::SimTime /*at*/) {}
  /// Control plane reached quiescence (after initial convergence and again
  /// at the end of the run).
  virtual void at_quiescence(const QuiescentView&, sim::SimTime /*at*/) {}
  /// A checkpoint restore completed. `snapshot_hash` is the content hash of
  /// the snapshot that was applied, `live_hash` the hash of the state
  /// re-serialized from the restored network — equal iff the round trip is
  /// bit-exact.
  virtual void on_restored(std::uint64_t /*snapshot_hash*/,
                           std::uint64_t /*live_hash*/, sim::SimTime /*at*/) {}

  void set_report_sink(std::function<void(Violation)> sink) {
    report_ = std::move(sink);
  }

 protected:
  /// Report one violation to the owning oracle.
  void report(sim::SimTime at, net::NodeId node, std::string detail) const;

 private:
  std::function<void(Violation)> report_;
};

}  // namespace bgpsim::check
