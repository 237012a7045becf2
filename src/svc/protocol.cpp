#include "svc/protocol.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/loop_detector.hpp"
#include "metrics/loop_stats.hpp"
#include "metrics/stats.hpp"

namespace bgpsim::svc {
namespace {

using snap::FormatError;
using snap::Reader;
using snap::Writer;

void write_summary(Writer& w, const metrics::Summary& s) {
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.stddev);
  w.f64(s.min);
  w.f64(s.max);
  w.f64(s.median);
}

// The fewest bytes one encoded item can take, for bounding decoded counts
// (Reader::count): a loop record is its member count, formation time and
// resolved flag; a size bucket is two counts, a Summary (n and five
// doubles) and a double; an outcome opens with 24 fixed 8-byte fields.
constexpr std::size_t kLoopRecordBytes = 8 + 8 + 1;
constexpr std::size_t kBucketBytes = 8 + 8 + 6 * 8 + 8;
constexpr std::size_t kOutcomeBytes = 24 * 8;

metrics::Summary read_summary(Reader& r) {
  metrics::Summary s;
  s.n = static_cast<std::size_t>(r.u64());
  s.mean = r.f64();
  s.stddev = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  s.median = r.f64();
  return s;
}

void write_loop_record(Writer& w, const metrics::LoopRecord& rec) {
  w.u64(rec.members.size());
  for (const net::NodeId m : rec.members) w.u32(m);
  w.time(rec.formed_at);
  w.b(rec.resolved_at.has_value());
  if (rec.resolved_at) w.time(*rec.resolved_at);
}

metrics::LoopRecord read_loop_record(Reader& r) {
  metrics::LoopRecord rec;
  const std::uint64_t n = r.count(4);
  rec.members.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) rec.members.push_back(r.u32());
  rec.formed_at = r.time();
  if (r.b()) rec.resolved_at = r.time();
  return rec;
}

void write_loop_stats(Writer& w, const metrics::LoopStats& s) {
  w.u64(s.total_loops);
  w.u64(s.distinct_sizes);
  w.u64(s.max_size);
  w.f64(s.mean_size);
  w.f64(s.two_node_fraction);
  write_summary(w, s.duration_s);
  w.u64(s.by_size.size());
  for (const metrics::SizeBucket& b : s.by_size) {
    w.u64(b.size);
    w.u64(b.count);
    write_summary(w, b.duration_s);
    w.f64(b.worst_per_hop_s);
  }
  w.f64(s.active_time_s);
  w.u64(s.max_concurrent);
}

metrics::LoopStats read_loop_stats(Reader& r) {
  metrics::LoopStats s;
  s.total_loops = static_cast<std::size_t>(r.u64());
  s.distinct_sizes = static_cast<std::size_t>(r.u64());
  s.max_size = static_cast<std::size_t>(r.u64());
  s.mean_size = r.f64();
  s.two_node_fraction = r.f64();
  s.duration_s = read_summary(r);
  const std::uint64_t buckets = r.count(kBucketBytes);
  s.by_size.reserve(static_cast<std::size_t>(buckets));
  for (std::uint64_t i = 0; i < buckets; ++i) {
    metrics::SizeBucket b;
    b.size = static_cast<std::size_t>(r.u64());
    b.count = static_cast<std::size_t>(r.u64());
    b.duration_s = read_summary(r);
    b.worst_per_hop_s = r.f64();
    s.by_size.push_back(std::move(b));
  }
  s.active_time_s = r.f64();
  s.max_concurrent = static_cast<std::size_t>(r.u64());
  return s;
}

void write_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) w.u64(x);
}

std::vector<std::uint64_t> read_u64_vec(Reader& r) {
  const std::uint64_t n = r.count(8);
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

/// Decode a frame payload with the shape check every schema shares: the
/// frame type must match and the payload must be fully consumed.
Reader payload_reader(const Frame& frame, FrameType expect) {
  if (frame.type != expect) {
    throw FormatError{"svc frame type mismatch: expected " +
                      std::to_string(static_cast<int>(expect)) + ", got " +
                      std::to_string(static_cast<int>(frame.type))};
  }
  return Reader{frame.payload};
}

}  // namespace

std::uint32_t protocol_version() { return kProtocolVersion; }

void check_protocol_version(std::uint32_t seen, const std::string& context) {
  if (seen != kProtocolVersion) {
    throw FormatError{"unsupported svc protocol version " +
                      std::to_string(seen) + " in " + context +
                      " (this build speaks " +
                      std::to_string(kProtocolVersion) + ")"};
  }
}

std::vector<std::uint8_t> encode_frame(const Frame& frame,
                                       std::uint32_t version) {
  Writer w;
  w.u64(kMagic);
  w.u32(version);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u64(frame.payload.size());
  std::vector<std::uint8_t> bytes = std::move(w).take();
  bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());
  const std::uint64_t hash = snap::fnv1a(bytes);
  Writer trailer;
  trailer.u64(hash);
  const std::vector<std::uint8_t>& t = trailer.bytes();
  bytes.insert(bytes.end(), t.begin(), t.end());
  return bytes;
}

FrameType decode_frame_header(std::span<const std::uint8_t> header,
                              std::uint64_t& payload_len) {
  if (header.size() < kHeaderSize) {
    throw FormatError{"svc frame truncated: header needs " +
                      std::to_string(kHeaderSize) + " byte(s), have " +
                      std::to_string(header.size())};
  }
  Reader r{header.first(kHeaderSize)};
  if (r.u64() != kMagic) {
    throw FormatError{"svc frame: bad magic (not a bgpsvc frame)"};
  }
  check_protocol_version(r.u32(), "frame header");
  const std::uint8_t raw_type = r.u8();
  if (raw_type < static_cast<std::uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kShutdown)) {
    throw FormatError{"svc frame: unknown frame type " +
                      std::to_string(raw_type)};
  }
  payload_len = r.u64();
  if (payload_len > kMaxPayload) {
    throw FormatError{"svc frame: payload length " +
                      std::to_string(payload_len) + " exceeds the " +
                      std::to_string(kMaxPayload) + "-byte limit"};
  }
  return static_cast<FrameType>(raw_type);
}

Frame decode_frame(std::span<const std::uint8_t> bytes) {
  std::uint64_t payload_len = 0;
  Frame frame;
  frame.type = decode_frame_header(bytes, payload_len);
  const std::uint64_t total = kHeaderSize + payload_len + 8;
  if (bytes.size() < total) {
    throw FormatError{"svc frame truncated: need " + std::to_string(total) +
                      " byte(s), have " + std::to_string(bytes.size())};
  }
  if (bytes.size() > total) {
    throw FormatError{"svc frame: " + std::to_string(bytes.size() - total) +
                      " trailing byte(s) after the integrity trailer"};
  }
  const std::span<const std::uint8_t> hashed =
      bytes.first(kHeaderSize + static_cast<std::size_t>(payload_len));
  Reader trailer{bytes.subspan(hashed.size())};
  const std::uint64_t declared = trailer.u64();
  const std::uint64_t actual = snap::fnv1a(hashed);
  if (declared != actual) {
    throw FormatError{"svc frame: integrity trailer mismatch (frame "
                      "corrupted in transit)"};
  }
  frame.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
                       bytes.begin() + static_cast<std::ptrdiff_t>(hashed.size()));
  return frame;
}

Frame encode_hello(const Hello& hello) {
  Writer w;
  w.u64(hello.worker_id);
  w.u64(hello.pid);
  return {FrameType::kHello, std::move(w).take()};
}

Hello decode_hello(const Frame& frame) {
  Reader r = payload_reader(frame, FrameType::kHello);
  Hello h;
  h.worker_id = r.u64();
  h.pid = r.u64();
  r.finish();
  return h;
}

Frame encode_work(const WorkUnit& unit) {
  Writer w;
  w.u64(unit.unit_id);
  w.u64(unit.scenario_index);
  w.u64(unit.trial_begin);
  w.u64(unit.trial_count);
  write_scenario(w, unit.scenario);
  return {FrameType::kWork, std::move(w).take()};
}

WorkUnit decode_work(const Frame& frame) {
  Reader r = payload_reader(frame, FrameType::kWork);
  WorkUnit u;
  u.unit_id = r.u64();
  u.scenario_index = r.u64();
  u.trial_begin = r.u64();
  u.trial_count = r.u64();
  u.scenario = read_scenario(r);
  r.finish();
  return u;
}

Frame encode_result(const UnitResult& result) {
  Writer w;
  w.u64(result.unit_id);
  w.u64(result.scenario_index);
  w.u64(result.trial_begin);
  w.u64(result.outcomes.size());
  for (const core::ExperimentOutcome& o : result.outcomes) write_outcome(w, o);
  return {FrameType::kResult, std::move(w).take()};
}

UnitResult decode_result(const Frame& frame) {
  Reader r = payload_reader(frame, FrameType::kResult);
  UnitResult res;
  res.unit_id = r.u64();
  res.scenario_index = r.u64();
  res.trial_begin = r.u64();
  const std::uint64_t n = r.count(kOutcomeBytes);
  res.outcomes.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) res.outcomes.push_back(read_outcome(r));
  r.finish();
  return res;
}

Frame encode_error(const UnitError& error) {
  Writer w;
  w.u64(error.unit_id);
  w.str(error.message);
  return {FrameType::kError, std::move(w).take()};
}

UnitError decode_error(const Frame& frame) {
  Reader r = payload_reader(frame, FrameType::kError);
  UnitError e;
  e.unit_id = r.u64();
  e.message = r.str();
  r.finish();
  return e;
}

Frame encode_shutdown() { return {FrameType::kShutdown, {}}; }

void write_scenario(Writer& w, const core::Scenario& s) {
  if (s.trace != nullptr || s.oracle != nullptr || s.save_converged != nullptr ||
      s.warm_start != nullptr) {
    throw std::invalid_argument{
        "svc: a scenario with a caller-owned trace/oracle/snapshot hook "
        "cannot be shipped to a worker process (the observer lives in the "
        "coordinator's address space)"};
  }
  if (s.bgp.policy != nullptr) {
    throw std::invalid_argument{
        "svc: a scenario with an explicit bgp.policy table cannot be "
        "shipped to a worker; set policy_routing and let the driver build "
        "the table from the policy-capable topology"};
  }
  w.u8(static_cast<std::uint8_t>(s.topology.kind));
  w.u64(s.topology.size);
  w.u64(s.topology.topo_seed);
  w.str(s.topology.rel_file);
  w.u8(static_cast<std::uint8_t>(s.event));
  w.time(s.bgp.mrai);
  w.f64(s.bgp.jitter_lo);
  w.f64(s.bgp.jitter_hi);
  w.b(s.bgp.ssld);
  w.b(s.bgp.wrate);
  w.b(s.bgp.assertion);
  w.b(s.bgp.ghost_flushing);
  w.time(s.bgp.backup_caution);
  w.time(s.processing.min);
  w.time(s.processing.max);
  w.time(s.traffic.interval);
  w.i64(s.traffic.ttl);
  w.b(s.traffic.stagger);
  w.b(s.policy_routing);
  w.u64(s.seed);
  w.b(s.destination.has_value());
  if (s.destination) w.u32(*s.destination);
  w.b(s.tlong_link.has_value());
  if (s.tlong_link) w.u32(*s.tlong_link);
  w.time(s.flap_interval);
  w.time(s.traffic_lead);
  w.time(s.settle_margin);
  w.time(s.max_sim_time);
  w.u8(static_cast<std::uint8_t>(s.snap_roundtrip));
  w.time(s.snap_roundtrip_after);
  w.u64(s.prefixes);
  w.u64(s.origins.size());
  for (const net::NodeId o : s.origins) w.u32(o);
}

core::Scenario read_scenario(Reader& r) {
  core::Scenario s;
  s.topology.kind = static_cast<core::TopologyKind>(r.u8());
  s.topology.size = static_cast<std::size_t>(r.u64());
  s.topology.topo_seed = r.u64();
  s.topology.rel_file = r.str();
  s.event = static_cast<core::EventKind>(r.u8());
  s.bgp.mrai = r.time();
  s.bgp.jitter_lo = r.f64();
  s.bgp.jitter_hi = r.f64();
  s.bgp.ssld = r.b();
  s.bgp.wrate = r.b();
  s.bgp.assertion = r.b();
  s.bgp.ghost_flushing = r.b();
  s.bgp.backup_caution = r.time();
  s.processing.min = r.time();
  s.processing.max = r.time();
  s.traffic.interval = r.time();
  s.traffic.ttl = static_cast<int>(r.i64());
  s.traffic.stagger = r.b();
  s.policy_routing = r.b();
  s.seed = r.u64();
  if (r.b()) s.destination = r.u32();
  if (r.b()) s.tlong_link = r.u32();
  s.flap_interval = r.time();
  s.traffic_lead = r.time();
  s.settle_margin = r.time();
  s.max_sim_time = r.time();
  s.snap_roundtrip = static_cast<core::SnapRoundtrip>(r.u8());
  s.snap_roundtrip_after = r.time();
  s.prefixes = static_cast<std::size_t>(r.u64());
  const std::uint64_t n_origins = r.count(4);
  s.origins.reserve(static_cast<std::size_t>(n_origins));
  for (std::uint64_t i = 0; i < n_origins; ++i) s.origins.push_back(r.u32());
  return s;
}

namespace {

/// The shared outcome body. The wire codec always appends the per-prefix
/// lane section (it is versioned); the digest writer passes
/// `lanes_even_if_empty = false` so a single-prefix outcome hashes to
/// exactly its pre-v3 bytes — every historical campaign digest holds.
void write_outcome_impl(Writer& w, const core::ExperimentOutcome& o,
                        bool lanes_even_if_empty) {
  const metrics::RunMetrics& m = o.metrics;
  w.f64(m.convergence_time_s);
  w.f64(m.looping_duration_s);
  w.u64(m.ttl_exhaustions);
  w.f64(m.looping_ratio);
  w.u64(m.packets_sent_during_convergence);
  w.u64(m.packets_sent_total);
  w.u64(m.packets_delivered);
  w.u64(m.packets_no_route);
  w.u64(m.packets_link_down);
  w.u64(m.updates_sent);
  w.u64(m.updates_sent_total);
  w.u64(m.bgp.announcements_sent);
  w.u64(m.bgp.withdrawals_sent);
  w.u64(m.bgp.updates_received);
  w.u64(m.bgp.poison_reverse_discards);
  w.u64(m.bgp.assertion_removals);
  w.u64(m.bgp.ghost_flushes);
  w.u64(m.bgp.ssld_conversions);
  w.u64(m.bgp.best_path_changes);
  w.u64(m.bgp.caution_holds);
  w.u64(m.loops_formed);
  w.f64(m.max_loop_duration_s);
  w.f64(m.mean_loop_size);
  w.u64(m.max_loop_size);
  w.u64(m.loops.size());
  for (const metrics::LoopRecord& rec : m.loops) write_loop_record(w, rec);
  write_loop_stats(w, m.loop_stats);
  write_u64_vec(w, m.update_activity_1s);
  write_u64_vec(w, m.exhaustion_activity_1s);
  w.time(m.event_at);
  w.time(m.last_update_at);
  w.time(m.first_exhaustion_at);
  w.time(m.last_exhaustion_at);
  w.u32(o.destination);
  w.b(o.failed_link.has_value());
  if (o.failed_link) w.u32(*o.failed_link);
  w.f64(o.initial_convergence_s);
  w.u64(o.events_fired);
  if (lanes_even_if_empty || !m.per_prefix.empty()) {
    w.u64(m.per_prefix.size());
    for (const metrics::RunMetrics::PrefixLane& lane : m.per_prefix) {
      w.u64(lane.loops_formed);
      w.f64(lane.max_loop_duration_s);
      w.u64(lane.ttl_exhaustions);
      w.u64(lane.packets_sent);
      w.u64(lane.packets_delivered);
    }
  }
}

}  // namespace

void write_outcome(Writer& w, const core::ExperimentOutcome& o) {
  write_outcome_impl(w, o, /*lanes_even_if_empty=*/true);
}

core::ExperimentOutcome read_outcome(Reader& r) {
  core::ExperimentOutcome o;
  metrics::RunMetrics& m = o.metrics;
  m.convergence_time_s = r.f64();
  m.looping_duration_s = r.f64();
  m.ttl_exhaustions = r.u64();
  m.looping_ratio = r.f64();
  m.packets_sent_during_convergence = r.u64();
  m.packets_sent_total = r.u64();
  m.packets_delivered = r.u64();
  m.packets_no_route = r.u64();
  m.packets_link_down = r.u64();
  m.updates_sent = r.u64();
  m.updates_sent_total = r.u64();
  m.bgp.announcements_sent = r.u64();
  m.bgp.withdrawals_sent = r.u64();
  m.bgp.updates_received = r.u64();
  m.bgp.poison_reverse_discards = r.u64();
  m.bgp.assertion_removals = r.u64();
  m.bgp.ghost_flushes = r.u64();
  m.bgp.ssld_conversions = r.u64();
  m.bgp.best_path_changes = r.u64();
  m.bgp.caution_holds = r.u64();
  m.loops_formed = r.u64();
  m.max_loop_duration_s = r.f64();
  m.mean_loop_size = r.f64();
  m.max_loop_size = static_cast<std::size_t>(r.u64());
  const std::uint64_t n_loops = r.count(kLoopRecordBytes);
  m.loops.reserve(static_cast<std::size_t>(n_loops));
  for (std::uint64_t i = 0; i < n_loops; ++i) {
    m.loops.push_back(read_loop_record(r));
  }
  m.loop_stats = read_loop_stats(r);
  m.update_activity_1s = read_u64_vec(r);
  m.exhaustion_activity_1s = read_u64_vec(r);
  m.event_at = r.time();
  m.last_update_at = r.time();
  m.first_exhaustion_at = r.time();
  m.last_exhaustion_at = r.time();
  o.destination = r.u32();
  if (r.b()) o.failed_link = r.u32();
  o.initial_convergence_s = r.f64();
  o.events_fired = r.u64();
  const std::uint64_t n_lanes = r.u64();
  m.per_prefix.resize(static_cast<std::size_t>(n_lanes));
  for (metrics::RunMetrics::PrefixLane& lane : m.per_prefix) {
    lane.loops_formed = r.u64();
    lane.max_loop_duration_s = r.f64();
    lane.ttl_exhaustions = r.u64();
    lane.packets_sent = r.u64();
    lane.packets_delivered = r.u64();
  }
  return o;
}

std::uint64_t trialset_digest(const core::TrialSet& set) {
  Writer w;
  w.u64(set.runs.size());
  for (const core::ExperimentOutcome& o : set.runs) {
    write_outcome_impl(w, o, /*lanes_even_if_empty=*/false);
  }
  write_summary(w, set.convergence_time_s);
  write_summary(w, set.looping_duration_s);
  write_summary(w, set.ttl_exhaustions);
  write_summary(w, set.looping_ratio);
  write_summary(w, set.loops_formed);
  write_summary(w, set.max_loop_duration_s);
  return snap::fnv1a(w.bytes());
}

std::uint64_t campaign_digest(const std::vector<core::TrialSet>& sets) {
  snap::Hasher h;
  h.mix(sets.size());
  for (const core::TrialSet& set : sets) h.mix(trialset_digest(set));
  return h.value();
}

}  // namespace bgpsim::svc
