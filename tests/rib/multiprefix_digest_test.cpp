// Multi-prefix end-to-end invariants: a full-table scenario's trial-set
// digest is identical at any job count, its per-prefix metric lanes
// survive the svc wire codec, a warm start reproduces the cold run, and
// pre-v4 snapshot blobs (no shared prefix table) are rejected by version.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_options.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "snap/codec.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

/// An 8-prefix full-table clique: prefix 0 at the event destination, the
/// rest cycled over three scattered origins.
Scenario clique_fulltable(EventKind event = EventKind::kTdown) {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = event;
  s.seed = 11;
  s.prefixes = 8;
  s.origins = {1, 3, 4};
  return s;
}

std::uint64_t digest(const Scenario& s, const RunOptions& options) {
  return svc::trialset_digest(run_trials(s, options));
}

std::uint64_t outcome_fingerprint(const ExperimentOutcome& o) {
  snap::Writer w;
  svc::write_outcome(w, o);
  return snap::fnv1a(w.bytes());
}

TEST(MultiPrefixDigest, IdenticalAcrossJobCounts) {
  for (const EventKind event : {EventKind::kTdown, EventKind::kTup}) {
    SCOPED_TRACE(to_string(event));
    const Scenario s = clique_fulltable(event);
    const std::uint64_t serial =
        digest(s, RunOptions{.trials = 4, .jobs = 1});
    EXPECT_EQ(serial, digest(s, RunOptions{.trials = 4, .jobs = 2}));
    EXPECT_EQ(serial, digest(s, RunOptions{.trials = 4, .jobs = 8}));
  }
}

TEST(MultiPrefixDigest, SensitiveToPrefixCountAndOrigins) {
  // Guard the guard: if the lanes or the extra prefixes never reached the
  // digest, the equivalence above would be vacuous.
  const RunOptions options{.trials = 2, .jobs = 1};
  const Scenario base = clique_fulltable();
  Scenario single = base;
  single.prefixes = 1;
  single.origins.clear();
  EXPECT_NE(digest(base, options), digest(single, options));

  Scenario moved = base;
  moved.origins = {2, 3, 4};  // shift one background origin
  EXPECT_NE(digest(base, options), digest(moved, options));
}

TEST(MultiPrefixDigest, PerPrefixLanesSurviveTheWireCodec) {
  const ExperimentOutcome out = run_experiment(clique_fulltable());
  ASSERT_EQ(out.metrics.per_prefix.size(), 8u);
  // The destination prefix saw the Tdown; at least its lane must have
  // routed traffic before the event killed the origin.
  EXPECT_GT(out.metrics.per_prefix[0].packets_sent, 0u);

  snap::Writer w;
  svc::write_outcome(w, out);
  snap::Reader r{w.bytes()};
  const ExperimentOutcome decoded = svc::read_outcome(r);
  ASSERT_EQ(decoded.metrics.per_prefix.size(), 8u);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("prefix " + std::to_string(p));
    const auto& a = out.metrics.per_prefix[p];
    const auto& b = decoded.metrics.per_prefix[p];
    EXPECT_EQ(a.loops_formed, b.loops_formed);
    EXPECT_EQ(a.max_loop_duration_s, b.max_loop_duration_s);
    EXPECT_EQ(a.ttl_exhaustions, b.ttl_exhaustions);
    EXPECT_EQ(a.packets_sent, b.packets_sent);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  }
  EXPECT_EQ(outcome_fingerprint(decoded), outcome_fingerprint(out));
}

TEST(MultiPrefixDigest, WarmStartReproducesColdRunBitForBit) {
  Scenario cold = clique_fulltable();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const ExperimentOutcome cold_out = run_experiment(cold);
  ASSERT_FALSE(converged.empty());
  EXPECT_TRUE(converged.meta().quiescent);

  Scenario warm = clique_fulltable();
  warm.warm_start = &converged;
  const ExperimentOutcome warm_out = run_experiment(warm);
  EXPECT_EQ(warm_out.initial_convergence_s, cold_out.initial_convergence_s);
  EXPECT_EQ(outcome_fingerprint(warm_out), outcome_fingerprint(cold_out));
}

TEST(MultiPrefixDigest, PreV4SnapshotBlobRejectedByVersion) {
  // A current reader must refuse v3 bytes outright (v3 payloads carry no
  // shared prefix table, so decoding them as a later version would misread
  // every section).
  Scenario cold = clique_fulltable();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  (void)run_experiment(cold);

  std::vector<std::uint8_t> blob = converged.encode();
  static_assert(snap::kFormatVersion > 3,
                "the downgrade byte below must predate the prefix table");
  blob[snap::kVersionOffset] = 3;
  try {
    (void)snap::Snapshot::decode(blob);
    FAIL() << "decode accepted a pre-multiprefix snapshot version";
  } catch (const snap::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported snapshot format version 3"),
              std::string::npos)
        << what;
  }
}

TEST(MultiPrefixDigest, V6SnapshotBlobRejectedByVersion) {
  // v6 payloads carry a prefix table (interning order plus an origin per
  // prefix) where v7 and later have one prefix count; the version check
  // refuses them before any payload byte is read.
  Scenario cold = clique_fulltable();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  (void)run_experiment(cold);

  std::vector<std::uint8_t> blob = converged.encode();
  static_assert(snap::kFormatVersion > 6,
                "v6 is the last version with a prefix table");
  blob[snap::kVersionOffset] = 6;
  try {
    (void)snap::Snapshot::decode(blob);
    FAIL() << "decode accepted a v6 snapshot";
  } catch (const snap::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported snapshot format version 6"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace bgpsim::core
