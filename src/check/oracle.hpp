// The oracle: owns a set of invariants, fans speaker/FIB callbacks out to
// them, and collects every violation.
//
// Wiring: the experiment drivers forward their hook callbacks into the
// dispatch methods (core::run_experiment does this when Scenario::oracle
// is set); tests and custom harnesses can call them directly. observe_fibs
// adds FIB observers *alongside* whatever is already attached (the metrics
// loop detector keeps working).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "fwd/fib.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::check {

class Oracle {
 public:
  Oracle() = default;
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;
  Oracle(Oracle&&) = default;
  Oracle& operator=(Oracle&&) = default;

  /// An oracle pre-loaded with the full standard invariant set
  /// (check/invariants.hpp).
  [[nodiscard]] static Oracle standard();

  /// Register an invariant; the oracle wires its report sink. Returns the
  /// registered instance for test-side configuration.
  Invariant& add(std::unique_ptr<Invariant> invariant);

  /// Fix the per-run facts and forward them to every invariant. Also
  /// clears violations, so one oracle can observe several runs in turn.
  void arm(const Context& context);

  [[nodiscard]] const Context& context() const { return context_; }

  // ---- dispatch (hook-shaped; see Invariant for semantics) -------------
  void on_route_installed(net::NodeId node, net::Prefix prefix,
                          const std::optional<bgp::AsPath>& best,
                          sim::SimTime at);
  void on_update_sent(net::NodeId from, net::NodeId to,
                      const bgp::UpdateMsg& msg, sim::SimTime at);
  void on_update_received(net::NodeId node, net::NodeId from,
                          const bgp::UpdateMsg& msg, sim::SimTime at);
  void on_session_changed(net::NodeId node, net::NodeId peer, bool up,
                          sim::SimTime at);
  void on_mrai_expired(net::NodeId node, net::NodeId peer, net::Prefix prefix,
                       bool was_pending, sim::SimTime at);
  /// `count` MRAI expiries passed silently (no invariant observes them):
  /// they count as observations all the same, so observations() reads the
  /// same whichever way the timers ran.
  void on_silent_mrai_expiries(std::uint64_t count) { observations_ += count; }
  void on_fib_changed(net::NodeId node, net::Prefix prefix,
                      std::optional<net::NodeId> previous,
                      std::optional<net::NodeId> current, sim::SimTime at);
  void at_quiescence(const QuiescentView& view, sim::SimTime at);
  void on_restored(std::uint64_t snapshot_hash, std::uint64_t live_hash,
                   sim::SimTime at);

  /// True when some invariant reads MRAI expiries
  /// (Invariant::observes_mrai_expiries).
  [[nodiscard]] bool observes_mrai_expiries() const;

  /// Subscribe to every node's FIB, in addition to observers already
  /// installed (e.g. the metrics loop detector).
  void observe_fibs(sim::Simulator& simulator, std::vector<fwd::Fib>& fibs);

  // ---- results ---------------------------------------------------------
  [[nodiscard]] bool ok() const { return violations_seen_ == 0; }
  /// Stored violations (capped at kMaxStored; see violations_seen()).
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Total violations observed, including any beyond the storage cap.
  [[nodiscard]] std::uint64_t violations_seen() const {
    return violations_seen_;
  }
  /// Callbacks dispatched since arm() — a vacuity guard: a run that never
  /// fed the oracle proves nothing, whatever ok() says.
  [[nodiscard]] std::uint64_t observations() const { return observations_; }

  /// At most `max_lines` one-line violation reports (plus a truncation
  /// note); empty string when ok().
  [[nodiscard]] std::string summary(std::size_t max_lines = 8) const;

  /// Throw std::runtime_error carrying summary() if any violation exists.
  void throw_if_violated() const;

  /// Storage cap for violation details (total count is always exact).
  static constexpr std::size_t kMaxStored = 64;

 private:
  void record(Violation v);

  std::vector<std::unique_ptr<Invariant>> invariants_;
  Context context_;
  std::vector<Violation> violations_;
  std::uint64_t violations_seen_ = 0;
  std::uint64_t observations_ = 0;
};

}  // namespace bgpsim::check
