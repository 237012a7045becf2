// Forwarding-loop detection on the next-hop graph.
//
// The paper measures loops indirectly via TTL exhaustion; it names per-loop
// statistics (size, duration) as future work. This detector implements that
// extension exactly: it mirrors every node's FIB next hop for one prefix
// and maintains the cycles of the resulting functional graph.
//
// Each node has at most one out-edge, so cycles are node-disjoint, and a
// single next-hop change at node X can only (a) dissolve the one cycle
// containing X and (b) create one new cycle through X's new edge. Updates
// are therefore incremental — a bounded walk from X instead of a full
// O(n) rescan — which is what makes loop accounting affordable on
// Internet-scale (10k-75k node) topologies. The records produced are
// bit-identical to a full rescan per change (see matches_full_scan).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fwd/fib.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace bgpsim::metrics {

/// One transient forwarding loop, from formation to resolution.
struct LoopRecord {
  std::vector<net::NodeId> members;  // canonical: rotated to smallest first
  sim::SimTime formed_at;
  std::optional<sim::SimTime> resolved_at;  // nullopt: still active at finalize

  [[nodiscard]] std::size_t size() const { return members.size(); }
  [[nodiscard]] double duration_seconds(sim::SimTime fallback_end) const {
    return ((resolved_at ? *resolved_at : fallback_end) - formed_at)
        .as_seconds();
  }
};

class LoopDetector {
 public:
  /// Observer for live loop events; `formed` is true at formation, false
  /// at resolution (resolution passes the completed record).
  using Observer = std::function<void(const LoopRecord&, bool formed)>;

  explicit LoopDetector(std::size_t node_count);

  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Install one observer on every node's Fib that forwards a change of
  /// prefix p to detectors[p] (changes of prefixes beyond the span are
  /// ignored), so a FIB change costs one dispatch however large the table.
  /// Single-prefix runs pass their one detector, which watches prefix 0.
  /// The observers subscribe alongside those already installed (the data
  /// plane, the oracle), so the order of attachment does not matter; the
  /// detectors must stay in place for as long as the Fibs change.
  static void attach(sim::Simulator& simulator, std::vector<fwd::Fib>& fibs,
                     std::span<LoopDetector> detectors);

  /// Manual feed (for tests / custom wiring): node's next hop changed.
  void on_next_hop_change(net::NodeId node, std::optional<net::NodeId> now,
                          sim::SimTime when);

  /// Close out loops still active at `end`.
  void finalize(sim::SimTime end);

  /// Drop accumulated records while keeping the mirrored next-hop state.
  /// Used at event injection so only post-event loops are reported.
  /// Requires no loop to be active (true at a converged state).
  void clear_history();

  [[nodiscard]] const std::vector<LoopRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] std::uint64_t loops_formed() const { return records_.size(); }

  /// Membership of all currently active loops.
  [[nodiscard]] std::vector<std::vector<net::NodeId>> active_loops() const;

  /// Test hook: rescan the whole next-hop graph and check that the cycles
  /// found match the incrementally tracked active set.
  [[nodiscard]] bool matches_full_scan() const;

 private:
  [[nodiscard]] std::vector<std::vector<net::NodeId>> find_cycles() const;

  static constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);

  Observer observer_;
  std::vector<std::optional<net::NodeId>> next_hop_;
  // canonical member list -> index into records_ (the active record)
  std::map<std::vector<net::NodeId>, std::size_t> active_;
  // node -> index of the active record it belongs to, or kNoRecord
  std::vector<std::size_t> active_idx_;
  // walk stamps for the incremental cycle search (epoch = one walk)
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  // the incremental search's walk, a buffer reused across changes
  std::vector<net::NodeId> walk_;
  std::vector<LoopRecord> records_;
};

}  // namespace bgpsim::metrics
