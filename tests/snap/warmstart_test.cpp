// Warm-start equivalence: a run forked from a converged-prelude snapshot
// must be bit-identical to the cold run that produced the snapshot — same
// metrics, same event totals — whether the snapshot travels through
// memory, the prelude cache, or a file on disk.
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/ls_experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "snap/cache.hpp"
#include "support/outcome_digest.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim {
namespace {

using test::outcome_digest;

core::Scenario bgp_scenario(core::EventKind event = core::EventKind::kTdown) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 6;
  s.event = event;
  s.bgp.mrai = sim::SimTime::seconds(5);
  s.seed = 17;
  return s;
}

TEST(WarmStart, BgpWarmRunReproducesColdRunBitForBit) {
  core::Scenario cold = bgp_scenario();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const core::ExperimentOutcome cold_out = core::run_experiment(cold);

  ASSERT_FALSE(converged.empty());
  EXPECT_TRUE(converged.meta().quiescent);
  EXPECT_EQ(converged.meta().driver, snap::DriverKind::kBgp);

  core::Scenario warm = bgp_scenario();
  warm.warm_start = &converged;
  const core::ExperimentOutcome warm_out = core::run_experiment(warm);

  EXPECT_EQ(warm_out.events_fired, cold_out.events_fired);
  EXPECT_EQ(warm_out.initial_convergence_s, cold_out.initial_convergence_s);
  EXPECT_EQ(outcome_digest(warm_out), outcome_digest(cold_out));
}

TEST(WarmStart, BgpSnapshotSurvivesFileRoundTrip) {
  core::Scenario cold = bgp_scenario();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const core::ExperimentOutcome cold_out = core::run_experiment(cold);

  const std::string path =
      testing::TempDir() + "/bgpsim_warmstart_test_state.snap";
  converged.save_file(path);
  const snap::Snapshot loaded = snap::Snapshot::load_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.content_hash(), converged.content_hash());

  core::Scenario warm = bgp_scenario();
  warm.warm_start = &loaded;
  const core::ExperimentOutcome warm_out = core::run_experiment(warm);
  EXPECT_EQ(outcome_digest(warm_out), outcome_digest(cold_out));
}

TEST(WarmStart, MismatchedSeedRejected) {
  core::Scenario cold = bgp_scenario();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  (void)core::run_experiment(cold);

  core::Scenario other = bgp_scenario();
  other.seed = 18;  // topology unchanged; only the root seed differs
  other.warm_start = &converged;
  try {
    (void)core::run_experiment(other);
    FAIL() << "warm start accepted a snapshot from a different seed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("seed"), std::string::npos)
        << e.what();
  }
}

TEST(WarmStart, MismatchedPreludeConfigRejected) {
  core::Scenario cold = bgp_scenario();
  snap::Snapshot converged;
  cold.save_converged = &converged;
  (void)core::run_experiment(cold);

  core::Scenario other = bgp_scenario();
  other.bgp.mrai = sim::SimTime::seconds(10);  // prelude-shaping knob
  other.warm_start = &converged;
  EXPECT_THROW((void)core::run_experiment(other), std::invalid_argument);

  core::Scenario tup = bgp_scenario(core::EventKind::kTup);
  tup.warm_start = &converged;  // Tup prelude does not originate the prefix
  EXPECT_THROW((void)core::run_experiment(tup), std::invalid_argument);
}

TEST(WarmStart, CrossDriverSnapshotRejected) {
  core::DvScenario dv;
  dv.topology.kind = core::TopologyKind::kClique;
  dv.topology.size = 6;
  dv.dv.periodic = sim::SimTime::zero();  // triggered-only: checkpointable
  dv.seed = 17;
  snap::Snapshot converged;
  dv.save_converged = &converged;
  (void)core::run_dv_experiment(dv);
  ASSERT_EQ(converged.meta().driver, snap::DriverKind::kDv);

  core::LsScenario ls;
  ls.topology.kind = core::TopologyKind::kClique;
  ls.topology.size = 6;
  ls.event = core::EventKind::kTdown;
  ls.seed = 17;
  ls.warm_start = &converged;
  try {
    (void)core::run_ls_experiment(ls);
    FAIL() << "ls driver accepted a dv snapshot";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("driver"), std::string::npos)
        << e.what();
  }
}

TEST(WarmStart, DvTriggeredOnlyWarmStartWorksPeriodicRejected) {
  core::DvScenario cold;
  cold.topology.kind = core::TopologyKind::kClique;
  cold.topology.size = 6;
  cold.dv.periodic = sim::SimTime::zero();
  cold.seed = 17;
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const core::ExperimentOutcome cold_out = core::run_dv_experiment(cold);

  core::DvScenario warm = cold;
  warm.save_converged = nullptr;
  warm.warm_start = &converged;
  const core::ExperimentOutcome warm_out = core::run_dv_experiment(warm);
  EXPECT_EQ(outcome_digest(warm_out), outcome_digest(cold_out));

  core::DvScenario periodic;
  periodic.topology.kind = core::TopologyKind::kClique;
  periodic.topology.size = 6;  // default dv.periodic = 30 s
  snap::Snapshot sink;
  periodic.save_converged = &sink;
  try {
    (void)core::run_dv_experiment(periodic);
    FAIL() << "periodic DV accepted a converged-prelude checkpoint hook";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("triggered-only"), std::string::npos)
        << e.what();
  }
}

TEST(WarmStart, LsWarmRunReproducesColdRun) {
  core::LsScenario cold;
  cold.topology.kind = core::TopologyKind::kRing;
  cold.topology.size = 6;
  cold.seed = 17;
  snap::Snapshot converged;
  cold.save_converged = &converged;
  const core::ExperimentOutcome cold_out = core::run_ls_experiment(cold);

  core::LsScenario warm = cold;
  warm.save_converged = nullptr;
  warm.warm_start = &converged;
  const core::ExperimentOutcome warm_out = core::run_ls_experiment(warm);
  EXPECT_EQ(warm_out.events_fired, cold_out.events_fired);
  EXPECT_EQ(outcome_digest(warm_out), outcome_digest(cold_out));
}

/// The prelude cache must be a pure wall-clock optimization: trial sets
/// computed with a cold cache, a warm cache, and a warm cache under the
/// parallel runner all agree bit-for-bit.
TEST(WarmStart, TrialSetsIdenticalAcrossCacheStatesAndRunners) {
  auto& cache = snap::PreludeCache::instance();
  cache.set_capacity(snap::PreludeCache::kDefaultCapacity);
  cache.clear();
  cache.reset_stats();

  const core::Scenario base = bgp_scenario();
  constexpr std::size_t kTrials = 3;

  const core::TrialSet cold =
      core::run_trials(base, core::RunOptions{.trials = kTrials, .jobs = 1});
  EXPECT_EQ(cache.misses(), kTrials);  // one deposit per trial seed

  const core::TrialSet warm_serial =
      core::run_trials(base, core::RunOptions{.trials = kTrials, .jobs = 1});
  EXPECT_EQ(cache.hits(), kTrials);  // second sweep forked every prelude

  const core::TrialSet warm_parallel =
      core::run_trials(base, core::RunOptions{.trials = kTrials, .jobs = 4});
  EXPECT_EQ(cache.hits(), 2 * kTrials);

  ASSERT_EQ(cold.runs.size(), kTrials);
  for (std::size_t i = 0; i < kTrials; ++i) {
    EXPECT_EQ(outcome_digest(warm_serial.runs[i]),
              outcome_digest(cold.runs[i]))
        << "trial " << i << " (serial, cache hit)";
    EXPECT_EQ(outcome_digest(warm_parallel.runs[i]),
              outcome_digest(cold.runs[i]))
        << "trial " << i << " (parallel, cache hit)";
  }
  EXPECT_EQ(warm_parallel.convergence_time_s.mean,
            cold.convergence_time_s.mean);
  EXPECT_EQ(warm_parallel.convergence_time_s.stddev,
            cold.convergence_time_s.stddev);
  EXPECT_EQ(warm_parallel.looping_ratio.mean, cold.looping_ratio.mean);
  EXPECT_EQ(warm_parallel.ttl_exhaustions.mean, cold.ttl_exhaustions.mean);

  cache.clear();
  cache.reset_stats();
}

}  // namespace
}  // namespace bgpsim
