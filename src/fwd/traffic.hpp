// Constant-rate traffic sources.
//
// The sources are strictly periodic, so they do not live in the event
// queue: the data plane keeps them as one ring of (next tick, seq) entries
// in firing order and serves them through its external slot together with
// the packet hops, firing both inline up to the next control event
// (DESIGN.md §5 "One data-plane event stream"). This class is the
// scenario-facing handle on that ring: it draws the stagger, starts and
// stops the sources, and checkpoints them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fwd/engine.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "snap/codec.hpp"

namespace bgpsim::fwd {

/// Per the study (§4.2): every non-destination AS hosts one source sending
/// a constant 10 packets/s stream toward the destination — slow enough that
/// queueing is negligible, fast enough that any loop outliving 256 ms
/// catches packets.
struct TrafficConfig {
  sim::SimTime interval = sim::SimTime::millis(100);  // 10 pkt/s
  int ttl = kDefaultTtl;
  /// Desynchronize sources: each source's first packet is offset by a
  /// uniform fraction of the interval (so all sources don't fire the same
  /// microsecond).
  bool stagger = true;
  /// Prefixes to spread traffic over (multi-prefix runs). Each source
  /// round-robins its packets over prefixes 0..prefix_count-1 starting at
  /// source % prefix_count — deterministic, no RNG draw. 1 (the default)
  /// injects every packet for the primary prefix, exactly as before.
  std::size_t prefix_count = 1;
};

/// Drives a set of CBR sources injecting into a DataPlane.
///
/// Each tick fires in exactly the order a self-rescheduling event would:
/// a source's first tick draws its tie-break seq at start(), in source
/// order; each later one draws it when its predecessor fires, after that
/// predecessor's injection. Send hooks run inside the data plane's drain
/// and must not schedule events (the simulator throws if one does).
class TrafficGenerator {
 public:
  /// Reports every injection (time-stamped packet-sent record). The one
  /// prefix-aware hook: single-prefix runs always report prefix 0.
  using SendHook = DataPlane::SendHook;

  /// `simulator` must be the one `plane` runs on; the plane fires the
  /// ticks.
  TrafficGenerator(sim::Simulator& /*simulator*/, DataPlane& plane,
                   TrafficConfig config, sim::Rng rng)
      : plane_{plane}, config_{config}, rng_{std::move(rng)} {}

  void set_send_hook(SendHook h) { plane_.set_send_hook(std::move(h)); }

  /// Begin sending from every node in `sources` at time `start`.
  void start(const std::vector<net::NodeId>& sources, sim::SimTime start);

  /// Stop all sources (takes effect at the current simulation time; each
  /// source's already pending tick still fires, as a counted no-op).
  void stop() { plane_.stop_sources(); }

  [[nodiscard]] bool running() const { return plane_.sources_running(); }
  [[nodiscard]] std::uint64_t packets_sent() const {
    return plane_.packets_sent();
  }

  /// Checkpoint the stagger RNG and the plane's sources: phase, send
  /// count, prefix cursors (multi-prefix mode only, so single-prefix bytes
  /// are unchanged) and, once traffic has started, the pending ticks.
  /// Before start() the bytes are exactly the pre-ring layout, so
  /// quiescent (prelude) snapshots are unchanged.
  void save_state(snap::Writer& w) const {
    snap::write_rng(w, rng_);
    plane_.save_sources(w, plan());
  }
  void restore_state(snap::Reader& r) {
    sim::Rng rng = rng_;
    snap::read_rng(r, rng);
    plane_.restore_sources(r, plan());
    rng_ = std::move(rng);
  }

 private:
  [[nodiscard]] DataPlane::SourcePlan plan() const {
    return DataPlane::SourcePlan{.interval = config_.interval,
                                 .ttl = config_.ttl,
                                 .prefix_count = config_.prefix_count};
  }

  DataPlane& plane_;
  TrafficConfig config_;
  sim::Rng rng_;
};

}  // namespace bgpsim::fwd
