// BGP speaker configuration, including the four studied enhancements.
#pragma once

#include <string>

#include "net/relationships.hpp"
#include "sim/time.hpp"

namespace bgpsim::bgp {

/// Which convergence-enhancement mechanism a speaker runs. The paper
/// evaluates each one separately against standard BGP.
enum class Enhancement {
  kStandard,       // RFC 1771 behavior: MRAI on announcements only
  kSsld,           // Sender-Side Loop Detection [Labovitz et al.]
  kWrate,          // Withdrawal RAte limiTing: MRAI on withdrawals too
  kAssertion,      // Assertion checks [Pei et al., INFOCOM 2002]
  kGhostFlushing,  // Ghost Flushing [Bremler-Barr et al., INFOCOM 2003]
};

[[nodiscard]] constexpr const char* to_string(Enhancement e) {
  switch (e) {
    case Enhancement::kStandard:
      return "BGP";
    case Enhancement::kSsld:
      return "SSLD";
    case Enhancement::kWrate:
      return "WRATE";
    case Enhancement::kAssertion:
      return "Assertion";
    case Enhancement::kGhostFlushing:
      return "GhostFlush";
  }
  return "?";
}

/// All five protocol variants, in the paper's presentation order.
inline constexpr Enhancement kAllEnhancements[] = {
    Enhancement::kStandard, Enhancement::kSsld, Enhancement::kWrate,
    Enhancement::kAssertion, Enhancement::kGhostFlushing};

struct BgpConfig {
  /// Minimum Route Advertisement Interval (per (peer, prefix)); default 30 s
  /// per RFC 1771.
  sim::SimTime mrai = sim::SimTime::seconds(30);

  /// Each timer start draws duration = mrai × U[jitter_lo, jitter_hi]
  /// (RFC 1771 §9.2.2.3 suggests jitter of 0.75–1.0 of the base value).
  double jitter_lo = 0.75;
  double jitter_hi = 1.0;

  /// Individual feature flags; usually set via `with(Enhancement)`.
  bool ssld = false;
  bool wrate = false;            // apply MRAI to withdrawals
  bool assertion = false;
  bool ghost_flushing = false;

  /// Optional Gao-Rexford policy (import preference + no-valley export).
  /// Null = the paper's shortest-path policy. The table must outlive every
  /// speaker constructed with this config.
  const net::RelationshipTable* policy = nullptr;

  /// DUAL-inspired caution (the paper's §3.3/§6 future-work direction):
  /// when the current path is lost and only a *worse* backup remains, wait
  /// this long before adopting it — behaving as unreachable (dropping
  /// packets) meanwhile, so withdrawals get time to flush obsolete state.
  /// Zero (default) = standard BGP's immediate switch. Trades loops for
  /// drops; see bench/ablation_caution.
  sim::SimTime backup_caution = sim::SimTime::zero();

  /// Returns a copy configured for exactly one enhancement.
  [[nodiscard]] BgpConfig with(Enhancement e) const {
    BgpConfig c = *this;
    c.ssld = e == Enhancement::kSsld;
    c.wrate = e == Enhancement::kWrate;
    c.assertion = e == Enhancement::kAssertion;
    c.ghost_flushing = e == Enhancement::kGhostFlushing;
    return c;
  }
};

}  // namespace bgpsim::bgp
