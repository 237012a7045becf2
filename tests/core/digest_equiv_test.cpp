// The prelude snapshot cache must be invisible in the output: it changes
// how a run executes, never what it produces. The tests compare
// svc::trialset_digest — a content hash over the codec encoding of every
// run plus the summaries — across settings (sweep_parallel_test.cpp does
// the same across job counts).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/run_options.hpp"
#include "core/sweep.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

Scenario clique_tdown() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.seed = 11;
  return s;
}

Scenario internet_tlong() {
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 29;
  s.topology.topo_seed = 7;
  s.event = EventKind::kTlong;
  s.seed = 11;
  return s;
}

std::uint64_t digest(const Scenario& s, const RunOptions& options) {
  return svc::trialset_digest(run_trials(s, options));
}

TEST(DigestEquivTest, PreludeCacheIsOutputInvariant) {
  const Scenario s = clique_tdown();
  const RunOptions cold{.trials = 3, .jobs = 1, .snap_cache = false};
  const RunOptions warm{.trials = 3, .jobs = 1, .snap_cache = true};
  const std::uint64_t cold_digest = digest(s, cold);
  // First warm run may fill the cache; the second must hit it. All three
  // digests agree or the cache leaks into the results.
  EXPECT_EQ(cold_digest, digest(s, warm));
  EXPECT_EQ(cold_digest, digest(s, warm));
}

TEST(DigestEquivTest, DigestIsSensitiveToTheScenario) {
  // Guard the guard: a digest that never changes would make every
  // equivalence test above vacuous.
  const RunOptions options{.trials = 2, .jobs = 1};
  EXPECT_NE(digest(clique_tdown(), options),
            digest(internet_tlong(), options));
}

}  // namespace
}  // namespace bgpsim::core
