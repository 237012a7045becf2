// Concrete invariants over the paper's claims. Each one is independent;
// standard_invariants() bundles the full set for the Oracle.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "metrics/loop_detector.hpp"

namespace bgpsim::check {

/// Every adopted path starts at the adopting node, contains no AS twice
/// (in particular never the adopter again — path-based poison reverse,
/// the paper's §2 correctness property), follows existing topology edges
/// (down links are allowed: adopting *obsolete* paths over failed links
/// is exactly the transient the paper studies), and ends at the origin.
class PathSanityInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "path-sanity";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void arm(const Context& ctx) override { ctx_ = ctx; }
  void on_route_installed(net::NodeId node, net::Prefix prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at) override;

 private:
  Context ctx_;
};

/// The FIB mirrors the Loc-RIB at every instant: next hop == second hop of
/// the selected path; no FIB route when unreachable or when the node's
/// path is just itself (the origin).
class RibFibConsistencyInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "rib-fib"; }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  /// Drops the previous run's mirror: one oracle may serve several trials,
  /// and each run's FIBs start empty.
  void arm(const Context&) override { fib_.clear(); }
  void on_fib_changed(net::NodeId node, net::Prefix prefix,
                      std::optional<net::NodeId> previous,
                      std::optional<net::NodeId> current,
                      sim::SimTime at) override;
  void on_route_installed(net::NodeId node, net::Prefix prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at) override;

 private:
  // Mirrored FIB state, maintained from on_fib_changed.
  std::map<std::pair<net::NodeId, net::Prefix>, net::NodeId> fib_;
};

/// RFC 1771 MRAI legality: two consecutive *announcements* from one node
/// to one peer for one prefix are at least mrai × jitter_lo apart.
/// Withdrawals are exempt unless WRATE applies MRAI to them too. A session
/// reset legally restarts the clock (timers are cancelled at session-down
/// and a fresh table exchange follows session-up).
class MraiLegalityInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "mrai-legality";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void arm(const Context& ctx) override;
  void on_update_sent(net::NodeId from, net::NodeId to,
                      const bgp::UpdateMsg& msg, sim::SimTime at) override;
  void on_session_changed(net::NodeId node, net::NodeId peer, bool up,
                          sim::SimTime at) override;

 private:
  Context ctx_;
  sim::SimTime min_gap_ = sim::SimTime::zero();
  std::map<std::pair<std::pair<net::NodeId, net::NodeId>, net::Prefix>,
           sim::SimTime>
      last_sent_;
};

/// §3.2 analytical bound: an m-node forwarding loop resolves within
/// (m-1) × MRAI plus per-hop processing/propagation slack. Tracks the
/// forwarding graph through FIB callbacks with its own loop detector.
class LoopDurationBoundInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "loop-duration-bound";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void arm(const Context& ctx) override;
  void on_fib_changed(net::NodeId node, net::Prefix prefix,
                      std::optional<net::NodeId> previous,
                      std::optional<net::NodeId> current,
                      sim::SimTime at) override;
  void at_quiescence(const QuiescentView& view, sim::SimTime at) override;

 private:
  void check_record(const metrics::LoopRecord& record, sim::SimTime end);
  /// The per-prefix detector, created on first sight of the prefix
  /// (multi-prefix runs track each prefix's forwarding graph separately).
  metrics::LoopDetector* detector_for(net::Prefix prefix);

  Context ctx_;
  std::map<net::Prefix, std::unique_ptr<metrics::LoopDetector>> detectors_;
};

/// At quiescence: the forwarding graph is loop-free and the RIB/FIB state
/// equals the offline fixed point (check/reference.hpp).
class ConvergedReferenceInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "converged-reference";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void arm(const Context& ctx) override { ctx_ = ctx; }
  void at_quiescence(const QuiescentView& view, sim::SimTime at) override;

 private:
  Context ctx_;
};

/// Gao-Rexford policy runs: every adopted path is valley-free (up* peer?
/// down* over the relationship table). This holds even *transiently*: the
/// no-valley export filter means only valley-free paths are ever put on
/// the wire, a stale adopted path was valley-free when learned, and the
/// relationship table never changes mid-run — so any valley is a policy-
/// plumbing bug, not an artifact of convergence. No-op when the context
/// carries no relationship table.
class ValleyFreeInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "valley-free";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void arm(const Context& ctx) override { ctx_ = ctx; }
  void on_route_installed(net::NodeId node, net::Prefix prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at) override;
  void at_quiescence(const QuiescentView& view, sim::SimTime at) override;

 private:
  Context ctx_;
};

/// Flags persistent oscillation instead of assuming convergence: a node
/// whose best path changes more than the flip budget between two quiescent
/// states looks like a dispute wheel (policy-induced non-convergence, cf.
/// Griffin's "Bad Gadget"), and is reported long before the run would die
/// on max_sim_time. The default budget is far above anything the paper's
/// path-exploration workloads reach; tune with set_flip_budget in tests.
class OscillationInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "oscillation";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void set_flip_budget(std::uint64_t budget) { budget_ = budget; }
  void arm(const Context& ctx) override;
  void on_route_installed(net::NodeId node, net::Prefix prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at) override;
  void at_quiescence(const QuiescentView& view, sim::SimTime at) override;

 private:
  Context ctx_;
  std::uint64_t budget_ = 2048;
  /// Sparse, keyed per (node, prefix): the flip budget is per prefix, so a
  /// multi-prefix run's legitimate P-fold exploration does not trip it.
  std::map<std::pair<net::NodeId, net::Prefix>, std::uint64_t> flips_;
  std::map<std::pair<net::NodeId, net::Prefix>, bool> reported_;
};

/// A checkpoint restore must be bit-exact: re-serializing the restored
/// network yields the same content hash as the snapshot that was applied.
/// Fed by the experiment drivers' restore paths (warm starts and in-place
/// round-trip probes).
class RestoreEquivalenceInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "restore-equivalence";
  }
  [[nodiscard]] bool observes_mrai_expiries() const override {
    return false;
  }
  void on_restored(std::uint64_t snapshot_hash, std::uint64_t live_hash,
                   sim::SimTime at) override;
};

/// The full standard set, one of each, unarmed.
[[nodiscard]] std::vector<std::unique_ptr<Invariant>> standard_invariants();

}  // namespace bgpsim::check
