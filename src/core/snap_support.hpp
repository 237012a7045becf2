// Internal checkpoint plumbing shared by the experiment drivers.
//
// Each driver's snapshot payload is: the simulator prologue (clock, fired
// count, event sequence), the network, the data plane, the traffic
// generator, and the metrics collector — in that order — optionally
// followed by driver-private extras. These helpers keep the common part in
// one place so the three drivers cannot drift apart byte-wise.
#pragma once

#include <stdexcept>
#include <string>

#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "metrics/collector.hpp"
#include "sim/scheduler.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core::detail {

/// Serialize the shared run state (prologue + substrate) into `w`. The
/// driver appends any extras afterwards.
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
  // excluded). Unpassed silent MRAI
  // deadlines are listed like queued events. The list holds control
  // events only: the external slot belongs to the data plane, whose hop
  // bridge and source ring (the traffic ticks) carry their own (time,
  // seq) in the plane's and the generator's sections, and are re-armed
  // from there.
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

/// Inverse of save_run_state. The driver reads its extras from `r` after
/// this returns, then calls r.finish().
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
  // generator section below restores them with the plane's source ring.) A mismatch means the snapshot is being
  // fed to a simulator in a different scheduling state; diverging
  // silently here would corrupt determinism, so refuse loudly.
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

}  // namespace bgpsim::core::detail
