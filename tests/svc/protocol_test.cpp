// Wire-protocol tests: round-trips for every frame and payload schema,
// plus hostile-input coverage — truncation, bad magic, version mismatch,
// oversized length prefixes, unknown frame types, and corrupt integrity
// trailers must all throw snap::FormatError with a precise message, never
// misparse.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "metrics/trace.hpp"
#include "snap/codec.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::svc {
namespace {

core::Scenario small_clique() {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 5;
  s.event = core::EventKind::kTdown;
  s.seed = 11;
  return s;
}

std::vector<std::uint8_t> hello_bytes() {
  return encode_frame(encode_hello(Hello{7, 1234}));
}

// ---- frame envelope --------------------------------------------------------

TEST(SvcProtocolTest, FrameRoundTripsEveryType) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kWork, FrameType::kResult,
        FrameType::kError, FrameType::kShutdown}) {
    Frame in;
    in.type = type;
    in.payload = {1, 2, 3, 4, 5};
    const std::vector<std::uint8_t> bytes = encode_frame(in);
    const Frame out = decode_frame(bytes);
    EXPECT_EQ(out.type, type);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(SvcProtocolTest, HeaderReportsPayloadLength) {
  const std::vector<std::uint8_t> bytes = hello_bytes();
  std::uint64_t payload_len = 0;
  EXPECT_EQ(decode_frame_header(bytes, payload_len), FrameType::kHello);
  EXPECT_EQ(payload_len, 16u);  // two u64s
  EXPECT_EQ(bytes.size(), kHeaderSize + payload_len + 8);
}

TEST(SvcProtocolTest, TruncatedHeaderThrows) {
  const std::vector<std::uint8_t> bytes = hello_bytes();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 kHeaderSize - 1}) {
    std::uint64_t payload_len = 0;
    EXPECT_THROW(
        (void)decode_frame_header({bytes.data(), keep}, payload_len),
        snap::FormatError)
        << "kept " << keep << " byte(s)";
  }
}

TEST(SvcProtocolTest, TruncatedBodyThrows) {
  const std::vector<std::uint8_t> bytes = hello_bytes();
  // Every truncation point past the header: payload cut short, trailer cut
  // short, trailer missing entirely.
  for (std::size_t keep = kHeaderSize; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)decode_frame({bytes.data(), keep}), snap::FormatError)
        << "kept " << keep << " of " << bytes.size() << " byte(s)";
  }
}

TEST(SvcProtocolTest, TrailingBytesThrow) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes.push_back(0);
  EXPECT_THROW((void)decode_frame(bytes), snap::FormatError);
}

TEST(SvcProtocolTest, BadMagicThrows) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes[0] ^= 0xFF;
  std::uint64_t payload_len = 0;
  try {
    (void)decode_frame_header(bytes, payload_len);
    FAIL() << "bad magic accepted";
  } catch (const snap::FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(SvcProtocolTest, VersionMismatchThrowsBeforeTrustingAnything) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes[8] = 0xFE;  // version lives at a fixed offset right after the magic
  std::uint64_t payload_len = 0;
  try {
    (void)decode_frame_header(bytes, payload_len);
    FAIL() << "future protocol version accepted";
  } catch (const snap::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported svc protocol version"), std::string::npos)
        << what;
    EXPECT_NE(what.find("this build speaks"), std::string::npos) << what;
  }
}

TEST(SvcProtocolTest, SharedVersionHelperMatchesTheWireConstant) {
  EXPECT_EQ(protocol_version(), kProtocolVersion);
  EXPECT_NO_THROW(check_protocol_version(kProtocolVersion, "frame header"));
  const std::uint32_t future = kProtocolVersion + 1;
  try {
    check_protocol_version(future, "journal header");
    FAIL() << "future protocol version accepted";
  } catch (const snap::FormatError& e) {
    const std::string what = e.what();
    // The one message every cross-version surface (frames, journals)
    // reports: the version seen, where, and what this build speaks.
    EXPECT_NE(what.find("unsupported svc protocol version " +
                        std::to_string(future)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("journal header"), std::string::npos) << what;
    EXPECT_NE(what.find("this build speaks"), std::string::npos) << what;
  }
}

TEST(SvcProtocolTest, EncodeFrameVersionOverrideRoundTripsTheField) {
  // encode_frame's version parameter exists so tests can forge frames
  // from other-version peers; the decoder must refuse them precisely.
  const std::uint32_t future = kProtocolVersion + 1;
  const std::vector<std::uint8_t> bytes =
      encode_frame(encode_hello(Hello{7, 1234}), future);
  std::uint64_t payload_len = 0;
  try {
    (void)decode_frame_header(bytes, payload_len);
    FAIL() << "future-version frame accepted by this build's decoder";
  } catch (const snap::FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("unsupported svc protocol version " +
                                         std::to_string(future)),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcProtocolTest, UnknownFrameTypeThrows) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes[12] = 99;  // type byte follows magic + version
  std::uint64_t payload_len = 0;
  EXPECT_THROW((void)decode_frame_header(bytes, payload_len),
               snap::FormatError);
}

TEST(SvcProtocolTest, OversizedLengthPrefixThrows) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  // Stamp a length just above the cap into the u64 at offset 13; a reader
  // must reject it from the header alone instead of trying to allocate.
  const std::uint64_t huge = kMaxPayload + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[13 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  std::uint64_t payload_len = 0;
  try {
    (void)decode_frame_header(bytes, payload_len);
    FAIL() << "oversized length prefix accepted";
  } catch (const snap::FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("exceeds"), std::string::npos)
        << e.what();
  }
}

TEST(SvcProtocolTest, CorruptTrailerThrows) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes.back() ^= 0x01;  // flip one bit of the FNV-1a trailer
  try {
    (void)decode_frame(bytes);
    FAIL() << "corrupt trailer accepted";
  } catch (const snap::FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("integrity trailer mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcProtocolTest, CorruptPayloadByteFailsTheTrailerCheck) {
  std::vector<std::uint8_t> bytes = hello_bytes();
  bytes[kHeaderSize] ^= 0x40;  // first payload byte
  EXPECT_THROW((void)decode_frame(bytes), snap::FormatError);
}

// ---- payload schemas -------------------------------------------------------

TEST(SvcProtocolTest, HelloRoundTrips) {
  const Hello out = decode_hello(encode_hello(Hello{42, 31337}));
  EXPECT_EQ(out.worker_id, 42u);
  EXPECT_EQ(out.pid, 31337u);
}

TEST(SvcProtocolTest, PayloadTypeMismatchThrows) {
  EXPECT_THROW((void)decode_work(encode_hello(Hello{})), snap::FormatError);
  EXPECT_THROW((void)decode_hello(encode_shutdown()), snap::FormatError);
}

TEST(SvcProtocolTest, WorkUnitRoundTrips) {
  WorkUnit in;
  in.unit_id = 9;
  in.scenario_index = 2;
  in.trial_begin = 4;
  in.trial_count = 3;
  in.scenario = small_clique();
  const WorkUnit out = decode_work(encode_work(in));
  EXPECT_EQ(out.unit_id, 9u);
  EXPECT_EQ(out.scenario_index, 2u);
  EXPECT_EQ(out.trial_begin, 4u);
  EXPECT_EQ(out.trial_count, 3u);
  EXPECT_EQ(out.scenario.topology.size, 5u);
  EXPECT_EQ(out.scenario.seed, 11u);
}

TEST(SvcProtocolTest, UnitErrorRoundTrips) {
  UnitError in;
  in.unit_id = 3;
  in.message = "convergence timeout: exceeded max_sim_time";
  const UnitError out = decode_error(encode_error(in));
  EXPECT_EQ(out.unit_id, 3u);
  EXPECT_EQ(out.message, in.message);
}

// ---- scenario codec --------------------------------------------------------

TEST(SvcProtocolTest, ScenarioRoundTripsEveryValueField) {
  core::Scenario in;
  in.topology.kind = core::TopologyKind::kInternet;
  in.topology.size = 33;
  in.topology.topo_seed = 77;
  in.event = core::EventKind::kFlap;
  in.bgp.mrai = sim::SimTime::seconds(17.5);
  in.bgp.jitter_lo = 0.72;
  in.bgp.jitter_hi = 0.99;
  in.bgp.ssld = true;
  in.bgp.ghost_flushing = true;
  in.bgp.backup_caution = sim::SimTime::seconds(1.25);
  in.processing.min = sim::SimTime::seconds(0.2);
  in.processing.max = sim::SimTime::seconds(0.4);
  in.traffic.interval = sim::SimTime::seconds(0.05);
  in.traffic.ttl = 64;
  in.traffic.stagger = false;
  in.policy_routing = true;
  in.seed = 0xDEADBEEFCAFEULL;
  in.destination = 13;
  in.tlong_link = 21;
  in.flap_interval = sim::SimTime::seconds(9);
  in.traffic_lead = sim::SimTime::seconds(3);
  in.settle_margin = sim::SimTime::seconds(7);
  in.max_sim_time = sim::SimTime::seconds(12345);
  in.snap_roundtrip = core::SnapRoundtrip::kVerify;
  in.snap_roundtrip_after = sim::SimTime::seconds(6);

  snap::Writer w;
  write_scenario(w, in);
  snap::Reader r{w.bytes()};
  const core::Scenario out = read_scenario(r);
  r.finish();

  EXPECT_EQ(out.topology.kind, in.topology.kind);
  EXPECT_EQ(out.topology.size, in.topology.size);
  EXPECT_EQ(out.topology.topo_seed, in.topology.topo_seed);
  EXPECT_EQ(out.event, in.event);
  EXPECT_EQ(out.bgp.mrai, in.bgp.mrai);
  EXPECT_EQ(out.bgp.jitter_lo, in.bgp.jitter_lo);
  EXPECT_EQ(out.bgp.jitter_hi, in.bgp.jitter_hi);
  EXPECT_EQ(out.bgp.ssld, in.bgp.ssld);
  EXPECT_EQ(out.bgp.wrate, in.bgp.wrate);
  EXPECT_EQ(out.bgp.assertion, in.bgp.assertion);
  EXPECT_EQ(out.bgp.ghost_flushing, in.bgp.ghost_flushing);
  EXPECT_EQ(out.bgp.backup_caution, in.bgp.backup_caution);
  EXPECT_EQ(out.processing.min, in.processing.min);
  EXPECT_EQ(out.processing.max, in.processing.max);
  EXPECT_EQ(out.traffic.interval, in.traffic.interval);
  EXPECT_EQ(out.traffic.ttl, in.traffic.ttl);
  EXPECT_EQ(out.traffic.stagger, in.traffic.stagger);
  EXPECT_EQ(out.policy_routing, in.policy_routing);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.destination, in.destination);
  EXPECT_EQ(out.tlong_link, in.tlong_link);
  EXPECT_EQ(out.flap_interval, in.flap_interval);
  EXPECT_EQ(out.traffic_lead, in.traffic_lead);
  EXPECT_EQ(out.settle_margin, in.settle_margin);
  EXPECT_EQ(out.max_sim_time, in.max_sim_time);
  EXPECT_EQ(out.snap_roundtrip, in.snap_roundtrip);
  EXPECT_EQ(out.snap_roundtrip_after, in.snap_roundtrip_after);
}

TEST(SvcProtocolTest, ScenarioWithUnsetOptionalsRoundTrips) {
  const core::Scenario in = small_clique();
  snap::Writer w;
  write_scenario(w, in);
  snap::Reader r{w.bytes()};
  const core::Scenario out = read_scenario(r);
  r.finish();
  EXPECT_FALSE(out.destination.has_value());
  EXPECT_FALSE(out.tlong_link.has_value());
}

TEST(SvcProtocolTest, ScenarioWithObserverHookIsRejected) {
  // Caller-owned hooks live in the coordinator's address space; shipping
  // the scenario would silently drop the observation. Refuse loudly.
  metrics::TraceRecorder trace;
  core::Scenario s = small_clique();
  s.trace = &trace;
  snap::Writer w;
  EXPECT_THROW(write_scenario(w, s), std::invalid_argument);
}

// ---- outcome codec + digests -----------------------------------------------

TEST(SvcProtocolTest, OutcomeRoundTripsBitIdentically) {
  // A real run's outcome (loops, activity profiles, timeline and all)
  // must survive the wire without perturbing a single bit.
  const core::ExperimentOutcome in =
      core::run_single_trial(small_clique(), 0);
  snap::Writer w;
  write_outcome(w, in);
  snap::Reader r{w.bytes()};
  const core::ExperimentOutcome out = read_outcome(r);
  r.finish();

  EXPECT_EQ(out.destination, in.destination);
  EXPECT_EQ(out.failed_link, in.failed_link);
  EXPECT_EQ(out.events_fired, in.events_fired);
  EXPECT_EQ(out.initial_convergence_s, in.initial_convergence_s);
  EXPECT_EQ(out.metrics.convergence_time_s, in.metrics.convergence_time_s);
  EXPECT_EQ(out.metrics.looping_duration_s, in.metrics.looping_duration_s);
  EXPECT_EQ(out.metrics.ttl_exhaustions, in.metrics.ttl_exhaustions);
  EXPECT_EQ(out.metrics.looping_ratio, in.metrics.looping_ratio);
  EXPECT_EQ(out.metrics.loops_formed, in.metrics.loops_formed);
  ASSERT_EQ(out.metrics.loops.size(), in.metrics.loops.size());
  for (std::size_t i = 0; i < in.metrics.loops.size(); ++i) {
    EXPECT_EQ(out.metrics.loops[i].members, in.metrics.loops[i].members);
    EXPECT_EQ(out.metrics.loops[i].formed_at, in.metrics.loops[i].formed_at);
    EXPECT_EQ(out.metrics.loops[i].resolved_at,
              in.metrics.loops[i].resolved_at);
  }
  EXPECT_EQ(out.metrics.loop_stats.total_loops,
            in.metrics.loop_stats.total_loops);
  EXPECT_EQ(out.metrics.loop_stats.by_size.size(),
            in.metrics.loop_stats.by_size.size());
  EXPECT_EQ(out.metrics.update_activity_1s, in.metrics.update_activity_1s);
  EXPECT_EQ(out.metrics.exhaustion_activity_1s,
            in.metrics.exhaustion_activity_1s);
  EXPECT_EQ(out.metrics.event_at, in.metrics.event_at);
  EXPECT_EQ(out.metrics.last_update_at, in.metrics.last_update_at);

  // Sharper than the field checks: encode the round-tripped outcome again
  // and require the exact same byte string.
  snap::Writer w2;
  write_outcome(w2, out);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(SvcProtocolTest, TrialsetDigestDetectsAnyDifference) {
  const core::TrialSet a =
      core::run_trials(small_clique(), core::RunOptions{.trials = 2, .jobs = 1});
  const core::TrialSet b =
      core::run_trials(small_clique(), core::RunOptions{.trials = 2, .jobs = 1});
  EXPECT_EQ(trialset_digest(a), trialset_digest(b));

  core::Scenario other = small_clique();
  other.seed = 12;
  const core::TrialSet c =
      core::run_trials(other, core::RunOptions{.trials = 2, .jobs = 1});
  EXPECT_NE(trialset_digest(a), trialset_digest(c));

  EXPECT_NE(campaign_digest({a}), campaign_digest({a, a}));
  EXPECT_EQ(campaign_digest({a, c}), campaign_digest({b, c}));
}

// ---- decoded counts the bytes cannot hold ----------------------------------
//
// Every count a decoder reserves for is checked against the bytes left:
// a short frame claiming billions of items ends in FormatError, never in
// std::bad_alloc, std::length_error or a huge allocation.

/// `count` after `fixed` zero u64 fields, then a few spare bytes.
std::vector<std::uint8_t> count_after(std::size_t fixed, std::uint64_t count) {
  snap::Writer w;
  for (std::size_t i = 0; i < fixed; ++i) w.u64(0);
  w.u64(count);
  w.u64(0);
  return std::move(w).take();
}

TEST(SvcProtocolTest, ResultWithAHugeOutcomeCountIsRejected) {
  for (const int bits : {20, 34, 62}) {
    SCOPED_TRACE(bits);
    Frame f;
    f.type = FrameType::kResult;
    f.payload = count_after(3, std::uint64_t{1} << bits);
    EXPECT_THROW((void)decode_result(f), snap::FormatError);
  }
}

/// A default outcome's bytes with the u64 at `offset` set to `value`.
std::vector<std::uint8_t> outcome_with(std::size_t offset,
                                       std::uint64_t value) {
  snap::Writer w;
  write_outcome(w, core::ExperimentOutcome{});
  std::vector<std::uint8_t> bytes = std::move(w).take();
  for (std::size_t i = 0; i < 8; ++i) {
    bytes.at(offset + i) = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return bytes;
}

// A default outcome: 24 fixed fields, the loop count, then the loop stats
// (3 counts, 2 doubles, a 48-byte summary, the bucket count, 2 fields)
// and the two activity profiles' counts.
constexpr std::size_t kLoopsAt = 24 * 8;
constexpr std::size_t kBucketsAt = kLoopsAt + 8 + 5 * 8 + 48;
constexpr std::size_t kUpdateActivityAt = kBucketsAt + 8 + 2 * 8;

TEST(SvcProtocolTest, OutcomeOffsetsMatchTheCodec) {
  for (const std::size_t at : {kLoopsAt, kBucketsAt, kUpdateActivityAt}) {
    const std::vector<std::uint8_t> bytes = outcome_with(at, 0);
    snap::Reader r{bytes};
    (void)read_outcome(r);
    r.finish();
  }
}

TEST(SvcProtocolTest, OutcomeWithAHugeLoopCountIsRejected) {
  const std::vector<std::uint8_t> bytes =
      outcome_with(kLoopsAt, std::uint64_t{1} << 40);
  snap::Reader r{bytes};
  EXPECT_THROW((void)read_outcome(r), snap::FormatError);
}

TEST(SvcProtocolTest, LoopRecordWithAHugeMemberCountIsRejected) {
  // One loop whose member count claims 2^40 members.
  snap::Writer w;
  for (int i = 0; i < 24; ++i) w.u64(0);
  w.u64(1);
  w.u64(std::uint64_t{1} << 40);
  for (int i = 0; i < 40; ++i) w.u64(0);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  snap::Reader r{bytes};
  EXPECT_THROW((void)read_outcome(r), snap::FormatError);
}

TEST(SvcProtocolTest, LoopStatsWithAHugeBucketCountIsRejected) {
  const std::vector<std::uint8_t> bytes =
      outcome_with(kBucketsAt, std::uint64_t{1} << 40);
  snap::Reader r{bytes};
  EXPECT_THROW((void)read_outcome(r), snap::FormatError);
}

TEST(SvcProtocolTest, ActivityProfileWithAHugeLengthIsRejected) {
  const std::vector<std::uint8_t> bytes =
      outcome_with(kUpdateActivityAt, std::uint64_t{1} << 40);
  snap::Reader r{bytes};
  EXPECT_THROW((void)read_outcome(r), snap::FormatError);
}

TEST(SvcProtocolTest, ScenarioWithAHugeOriginCountIsRejected) {
  // The origin count is the scenario's last field.
  snap::Writer w;
  write_scenario(w, small_clique());
  std::vector<std::uint8_t> bytes = std::move(w).take();
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = i == 5 ? 1 : 0;  // 2^40
  }
  snap::Reader r{bytes};
  EXPECT_THROW((void)read_scenario(r), snap::FormatError);
}

}  // namespace
}  // namespace bgpsim::svc
