// Constant-rate traffic sources.
#pragma once

#include <cstdint>
#include <functional>
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
class TrafficGenerator {
 public:
  /// Reports every injection (time-stamped packet-sent record). The one
  /// prefix-aware hook: single-prefix runs always report prefix 0.
  using SendHook = std::function<void(net::NodeId source, net::Prefix prefix,
                                      sim::SimTime when)>;
  TrafficGenerator(sim::Simulator& simulator, DataPlane& plane,
                   TrafficConfig config, sim::Rng rng)
      : sim_{simulator}, plane_{plane}, config_{config}, rng_{std::move(rng)} {}

  void set_send_hook(SendHook h) { on_send_ = std::move(h); }

  /// Begin sending from every node in `sources` at time `start`.
  void start(const std::vector<net::NodeId>& sources, sim::SimTime start);

  /// Stop all sources (takes effect at the current simulation time; already
  /// scheduled next-injections are suppressed).
  void stop() { running_ = false; }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }

  /// Checkpoint the stagger RNG and send counters. Per-source tick chains
  /// are scheduled closures: preserved in place by an in-run checkpoint,
  /// not yet started at a pre-traffic (quiescent) one. Prefix cursors are
  /// written only in multi-prefix mode, so single-prefix bytes are
  /// unchanged.
  void save_state(snap::Writer& w) const {
    snap::write_rng(w, rng_);
    w.b(running_);
    w.u64(sent_);
    if (config_.prefix_count > 1) {
      w.u64(cursor_.size());
      for (const std::uint64_t c : cursor_) w.u64(c);
    }
  }
  void restore_state(snap::Reader& r) {
    snap::read_rng(r, rng_);
    running_ = r.b();
    sent_ = r.u64();
    if (config_.prefix_count > 1) {
      cursor_.assign(static_cast<std::size_t>(r.u64()), 0);
      for (std::uint64_t& c : cursor_) c = r.u64();
    }
  }

 private:
  void tick(net::NodeId source);

  sim::Simulator& sim_;
  DataPlane& plane_;
  TrafficConfig config_;
  sim::Rng rng_;
  SendHook on_send_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  /// Per-source round-robin position over the prefix set (multi-prefix
  /// mode only; indexed by source id, sized at start()).
  std::vector<std::uint64_t> cursor_;
};

}  // namespace bgpsim::fwd
