// Versioned, deterministic checkpoints of complete simulation state.
//
// A Snapshot is an opaque payload (written by an experiment driver via
// snap::Writer) plus identity metadata: which driver wrote it, hashes of
// the topology and of every prelude-shaping configuration knob, the root
// seed, and the simulation clock. The metadata is what makes restore safe:
// a driver refuses to warm-start from a snapshot whose identity does not
// match the scenario it is about to run, with a precise error instead of
// silently diverging state. The payload's network section is laid out as
// fwd/protocol_network.hpp states, the same for every protocol.
//
// On-disk layout of encode() (all little-endian):
//   offset 0   u64  magic "bgpsnap\0"
//   offset 8   u32  format version (kFormatVersion)
//   offset 12  ...  meta fields, u64 payload length, payload bytes
//   trailer    u64  FNV-1a over everything before the trailer
// The version sits at a fixed offset so readers can reject a future
// format before trusting any field behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "snap/codec.hpp"

namespace bgpsim::snap {

/// Bump on any change to the meta or payload layout.
/// v2: pooled-queue EventId encoding (slot|generation) inside serialized
/// MRAI timers; the data plane's bridge event moved to the simulator's
/// external slot and its EventId left the record.
/// v3: the simulator prologue gained the live pending-event list as
/// sorted (time µs, seq) pairs — the index-invariant view of the event
/// queue (slot/generation/free-list order are allocation artifacts and
/// stay out of the stream). Restore verifies the list against the live
/// queue instead of rebuilding it: closures are not serializable, so a
/// fresh restore still requires quiescence (zero entries).
/// v4: multi-prefix SoA RIB — the BGP payload gained a shared prefix
/// table section ahead of the per-node sections, and in-queue update
/// payloads carry a tag byte (0 = single UpdateMsg, 1 = UpdateBatch).
/// v5: redesigned fwd API — the data plane's hop events are serialized in
/// ascending (time µs, seq) order as an explicit backend-invariant
/// contract (ring cohorts or the heap reference store,
/// fwd::PlaneBackend), so snapshots are portable across hop stores; the
/// bump fences off
/// v4 builds whose data plane cannot restore into a ring store.
/// v6: an MRAI timer record is (deadline µs, seq, pending) instead of the
/// timer's event id — the last allocation artifact in the stream. Timers
/// that hold no decision are silent simulator deadlines and have no id.
/// v7: the BGP payload's prefix table (interning order plus an origin per
/// prefix) became one u64 prefix count, which a restore requires to equal
/// the network's; every prefix in the payload is below it.
/// v8: paths by reference. The BGP network section opens with the trial's
/// path arena, ahead of the transport: its node count, then each node in
/// interning order as a (parent ref, head) u32 pair, every parent ahead of
/// its children. Every Loc-RIB, Adj-RIB-In, Adj-RIB-Out and queued
/// UpdateMsg path, formerly a u64 hop count and its hops, is one u32 ref:
/// 0 the empty path, i + 1 arena node i. A v7 blob is rejected.
inline constexpr std::uint32_t kFormatVersion = 8;

/// Byte offset of the format-version field inside encode() output —
/// stable across versions (it sits directly behind the magic).
inline constexpr std::size_t kVersionOffset = 8;

/// Which experiment driver wrote the payload. Payload layouts are
/// per-driver and private to that driver; the tag prevents cross-feeding.
enum class DriverKind : std::uint8_t { kBgp = 1, kDv = 2, kLs = 3 };

[[nodiscard]] constexpr const char* to_string(DriverKind d) {
  switch (d) {
    case DriverKind::kBgp:
      return "bgp";
    case DriverKind::kDv:
      return "dv";
    case DriverKind::kLs:
      return "ls";
  }
  return "?";
}

struct SnapshotMeta {
  DriverKind driver = DriverKind::kBgp;
  /// hash_topology() of the built topology the state refers to.
  std::uint64_t topology_hash = 0;
  /// Driver-specific hash of every knob that shaped the saved state
  /// (protocol config, processing delays, destination-choice inputs).
  std::uint64_t config_hash = 0;
  /// Scenario root seed the run was started with.
  std::uint64_t seed = 0;
  /// The destination the run selected (restore must agree on it).
  net::NodeId destination = net::kInvalidNode;
  /// Whether the prelude included the origination (event != Tup).
  bool originated = false;
  /// True when taken at control-plane quiescence with an empty event
  /// queue — the only instant a snapshot can be restored into a freshly
  /// constructed object graph (scheduled closures are not serializable).
  bool quiescent = false;
  /// Simulation clock at the instant of capture.
  sim::SimTime sim_time = sim::SimTime::zero();
};

class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(SnapshotMeta meta, std::vector<std::uint8_t> payload);
  Snapshot(const Snapshot& other)
      : meta_{other.meta_}, payload_{other.payload_}, hash_{other.memo()} {}
  Snapshot(Snapshot&& other) noexcept
      : meta_{other.meta_},
        payload_{std::move(other.payload_)},
        hash_{other.hash_.exchange(0, std::memory_order_relaxed)} {}
  Snapshot& operator=(const Snapshot& other) {
    if (this != &other) *this = Snapshot{other};
    return *this;
  }
  Snapshot& operator=(Snapshot&& other) noexcept {
    meta_ = other.meta_;
    payload_ = std::move(other.payload_);
    hash_.store(other.hash_.exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] const SnapshotMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const {
    return payload_;
  }
  /// True for a default-constructed (never captured) snapshot.
  [[nodiscard]] bool empty() const { return payload_.empty(); }
  /// FNV-1a over the payload: the state fingerprint the restore-equivalence
  /// checks compare. Computed on first use: most captures are never
  /// compared.
  [[nodiscard]] std::uint64_t content_hash() const;
  [[nodiscard]] std::size_t size_bytes() const { return payload_.size(); }

  /// Self-contained blob: magic, version, meta, payload, integrity hash.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parse an encoded blob. Throws FormatError on bad magic, unsupported
  /// version, truncation, trailing bytes, or integrity-hash mismatch.
  [[nodiscard]] static Snapshot decode(std::span<const std::uint8_t> blob);

  /// File I/O over encode()/decode(). Throws std::runtime_error on I/O
  /// failure, FormatError on malformed content.
  void save_file(const std::string& path) const;
  [[nodiscard]] static Snapshot load_file(const std::string& path);

 private:
  [[nodiscard]] std::uint64_t memo() const {
    return hash_.load(std::memory_order_relaxed);
  }

  SnapshotMeta meta_;
  std::vector<std::uint8_t> payload_;
  /// content_hash() once computed, 0 before (a payload that hashes to 0
  /// is merely hashed again). Atomic because the prelude cache shares one
  /// snapshot across worker threads; racing threads store the same value.
  mutable std::atomic<std::uint64_t> hash_{0};
};

/// Identity hash of a topology: node count plus every link's endpoints,
/// delay, and up/down state.
[[nodiscard]] std::uint64_t hash_topology(const net::Topology& topo);

}  // namespace bgpsim::snap
