#include "snap/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace bgpsim::snap {
namespace {

// "bgpsnap\0" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x0070616e73706762ULL;

}  // namespace

Snapshot::Snapshot(SnapshotMeta meta, std::vector<std::uint8_t> payload)
    : meta_{meta}, payload_{std::move(payload)} {}

std::uint64_t Snapshot::content_hash() const {
  std::uint64_t h = memo();
  if (h == 0) {
    h = fnv1a(payload_);
    hash_.store(h, std::memory_order_relaxed);
  }
  return h;
}

std::vector<std::uint8_t> Snapshot::encode() const {
  Writer w;
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(meta_.driver));
  w.u64(meta_.topology_hash);
  w.u64(meta_.config_hash);
  w.u64(meta_.seed);
  w.u32(meta_.destination);
  w.b(meta_.originated);
  w.b(meta_.quiescent);
  w.time(meta_.sim_time);
  w.u64(payload_.size());
  std::vector<std::uint8_t> blob = std::move(w).take();
  blob.insert(blob.end(), payload_.begin(), payload_.end());
  const std::uint64_t integrity = fnv1a(blob);
  Writer trailer;
  trailer.u64(integrity);
  const auto& t = trailer.bytes();
  blob.insert(blob.end(), t.begin(), t.end());
  return blob;
}

Snapshot Snapshot::decode(std::span<const std::uint8_t> blob) {
  if (blob.size() < 8 + 8) {
    throw FormatError{"snapshot blob too short to hold magic and trailer"};
  }
  // Verify the integrity trailer before trusting any field.
  Reader trailer{blob.subspan(blob.size() - 8)};
  const std::uint64_t stored = trailer.u64();
  const std::uint64_t computed = fnv1a(blob.first(blob.size() - 8));
  Reader r{blob.first(blob.size() - 8)};
  if (r.u64() != kMagic) {
    throw FormatError{"not a bgpsim snapshot (bad magic)"};
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw FormatError{"unsupported snapshot format version " +
                      std::to_string(version) + " (this build reads version " +
                      std::to_string(kFormatVersion) + ")"};
  }
  if (computed != stored) {
    throw FormatError{"snapshot integrity hash mismatch (corrupted blob?)"};
  }
  SnapshotMeta meta;
  const std::uint8_t driver = r.u8();
  if (driver < 1 || driver > 3) {
    throw FormatError{"snapshot names unknown driver tag " +
                      std::to_string(driver)};
  }
  meta.driver = static_cast<DriverKind>(driver);
  meta.topology_hash = r.u64();
  meta.config_hash = r.u64();
  meta.seed = r.u64();
  meta.destination = r.u32();
  meta.originated = r.b();
  meta.quiescent = r.b();
  meta.sim_time = r.time();
  const std::uint64_t payload_len = r.u64();
  if (payload_len != r.remaining()) {
    throw FormatError{"snapshot payload length " +
                      std::to_string(payload_len) + " does not match the " +
                      std::to_string(r.remaining()) + " byte(s) present"};
  }
  const std::span<const std::uint8_t> payload = r.raw(payload_len);
  return Snapshot{meta, {payload.begin(), payload.end()}};
}

void Snapshot::save_file(const std::string& path) const {
  const std::vector<std::uint8_t> blob = encode();
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    throw std::runtime_error{"snapshot: cannot open " + path + " for writing"};
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw std::runtime_error{"snapshot: short write to " + path};
  }
}

Snapshot Snapshot::load_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"snapshot: cannot open " + path};
  }
  std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>{in},
                                 std::istreambuf_iterator<char>{}};
  if (in.bad()) {
    throw std::runtime_error{"snapshot: read error on " + path};
  }
  return decode(blob);
}

std::uint64_t hash_topology(const net::Topology& topo) {
  Hasher h;
  h.mix(topo.node_count());
  h.mix(topo.link_count());
  for (net::LinkId id = 0; id < topo.link_count(); ++id) {
    const net::Link& link = topo.link(id);
    h.mix(link.a);
    h.mix(link.b);
    h.mix_time(link.delay);
    h.mix(link.up ? 1 : 0);
  }
  return h.value();
}

}  // namespace bgpsim::snap
