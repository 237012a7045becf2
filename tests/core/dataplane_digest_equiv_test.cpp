// The data-plane hop store must be invisible in the output: every digest
// — serial, thread-parallel, and multi-process — must be bit-identical on
// the default rings and on the heap hop store (pinned process-wide with
// fwd::ScopedPlaneBackend), and snapshots taken under one backend must
// restore (and verify) under the other. The heap is the per-event
// reference; any divergence here means batched cohort draining or the
// per-(node, prefix) decision memo changed observable behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "core/run_options.hpp"
#include "core/sweep.hpp"
#include "fwd/engine.hpp"
#include "snap/snapshot.hpp"
#include "svc/coordinator.hpp"
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

Scenario clique_multiprefix() {
  Scenario s = clique_tdown();
  s.prefixes = 4;  // batched decisions with several (node, prefix) keys
  return s;
}

/// bgpsim_bench's headline-tdown trial: the paper's 110-node Internet
/// Tdown, graph 3, destination 65, MRAI 30 s, seed 3.
Scenario bench_headline_tdown() {
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 110;
  s.topology.topo_seed = 3;
  s.event = EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 3;
  s.destination = 65;
  return s;
}

/// campaign-fig8's heaviest loop unit: standard BGP on the 16-clique at
/// seed 1 (its traced scenario, trial 0).
Scenario bench_fig8_clique16() {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 16;
  s.topology.topo_seed = 1;
  s.event = EventKind::kTdown;
  s.bgp = s.bgp.with(bgp::Enhancement::kStandard);
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 1;
  return s;
}

/// bgpsim_bench's policy-10k trial: Gao-Rexford on the 10k-AS graph,
/// destination 2494, seed 1. Its 9,999 staggered sources make it the
/// workload with the densest tick/tick and tick/hop ties at equal µs.
Scenario bench_policy_10k() {
  Scenario s;
  s.topology.kind = TopologyKind::kAsGraph;
  s.topology.size = 10000;
  s.topology.topo_seed = 1;
  s.event = EventKind::kTdown;
  s.policy_routing = true;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 1;
  s.destination = 2494;
  return s;
}

/// The dimensions whose hot paths the ring store reorders internally:
/// heavy looping traffic under each enhancement, flap re-arming, policy
/// routing, and multi-prefix cohorts sharing one drain.
std::vector<std::pair<std::string, Scenario>> scenario_matrix() {
  std::vector<std::pair<std::string, Scenario>> matrix;
  matrix.emplace_back("clique-tdown", clique_tdown());
  matrix.emplace_back("internet-tlong", internet_tlong());
  matrix.emplace_back("clique-multiprefix", clique_multiprefix());
  for (const bgp::Enhancement e :
       {bgp::Enhancement::kSsld, bgp::Enhancement::kWrate,
        bgp::Enhancement::kAssertion, bgp::Enhancement::kGhostFlushing}) {
    Scenario s = clique_tdown();
    s.bgp = s.bgp.with(e);
    matrix.emplace_back(std::string{"clique-tdown-"} + to_string(e), s);
  }
  {
    Scenario s = clique_tdown();
    s.event = EventKind::kFlap;
    matrix.emplace_back("clique-flap", s);
  }
  {
    Scenario s = internet_tlong();
    s.policy_routing = true;
    matrix.emplace_back("internet-tlong-policy", s);
  }
  return matrix;
}

std::uint64_t digest(const Scenario& s, const RunOptions& options) {
  return svc::trialset_digest(run_trials(s, options));
}

fwd::PlaneBackend backend_of(bool rings) {
  return rings ? fwd::PlaneBackend::kRings : fwd::PlaneBackend::kHeap;
}

TEST(DataPlaneDigestEquivTest, RunOptionsLeverIsOutputInvariant) {
  // A whole run_trials call on each hop store.
  const RunOptions options{.trials = 2, .jobs = 1};
  for (const auto& [name, s] : scenario_matrix()) {
    SCOPED_TRACE(name);
    const std::uint64_t rings = digest(s, options);
    const fwd::ScopedPlaneBackend heap{fwd::PlaneBackend::kHeap};
    EXPECT_EQ(rings, digest(s, options));
  }
}

TEST(DataPlaneDigestEquivTest, BenchInputsArePinnedOnBothBackends) {
  // The benchmark's own inputs, pinned here so that any drift in the
  // exactness ledger (skipped hops credited to events_fired, the bridge's
  // seq order, fate order) fails ctest before anyone runs the bench. The
  // headline is where speculative cycle delivery does nearly all the work;
  // policy-10k is where traffic-source ticks and hops tie most often.
  struct Pin {
    const char* name;
    Scenario scenario;
    std::uint64_t digest;
    std::uint64_t events_fired;
  };
  const Pin pins[] = {
      {"headline-tdown", bench_headline_tdown(), 0x7fa21cc2dc0305feULL,
       34'576'585},
      {"campaign-fig8 clique-16 bgp", bench_fig8_clique16(),
       0x189063b154df1e0bULL, 3'678'335},
      {"policy-10k", bench_policy_10k(), 0xcff5d48ba555667aULL, 2'313'242},
  };
  for (const Pin& pin : pins) {
    for (const bool rings : {true, false}) {
      SCOPED_TRACE(std::string{pin.name} + (rings ? " rings" : " heap"));
      const fwd::ScopedPlaneBackend backend{backend_of(rings)};
      const TrialSet set =
          run_trials(pin.scenario, RunOptions{.trials = 1, .jobs = 1});
      EXPECT_EQ(svc::trialset_digest(set), pin.digest);
      EXPECT_EQ(set.runs.front().events_fired, pin.events_fired);
    }
  }
}

/// Reads every MRAI expiry, so each timer runs as a queued event instead
/// of passing silently when it holds no decision.
class ExpiryObserver final : public check::Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "expiry-observer";
  }
  void on_mrai_expired(net::NodeId, net::NodeId, net::Prefix, bool,
                       sim::SimTime) override {
    ++expiries;
  }
  std::uint64_t expiries = 0;
};

TEST(DataPlaneDigestEquivTest, PolicyPinHoldsWithEveryMraiExpiryQueued) {
  // policy-10k with an observer attached: every MRAI timer runs as a
  // queued event, on both hop stores, and the pin must not move.
  for (const bool rings : {true, false}) {
    SCOPED_TRACE(rings ? "rings" : "heap");
    const fwd::ScopedPlaneBackend backend{backend_of(rings)};
    check::Oracle oracle;
    auto& observer = static_cast<ExpiryObserver&>(
        oracle.add(std::make_unique<ExpiryObserver>()));
    const TrialSet set = run_trials(
        bench_policy_10k(),
        RunOptions{.trials = 1, .jobs = 1, .oracle = &oracle});
    EXPECT_EQ(svc::trialset_digest(set), 0xcff5d48ba555667aULL);
    EXPECT_EQ(set.runs.front().events_fired, 2'313'242u);
    EXPECT_GT(observer.expiries, 0u);
  }
}

TEST(DataPlaneDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  // Cross the backend with the fan-out width: every (backend, jobs)
  // combination must land on one digest.
  const Scenario s = internet_tlong();
  const std::uint64_t reference =
      digest(s, RunOptions{.trials = 8, .jobs = 1});
  for (const bool rings : {true, false}) {
    const fwd::ScopedPlaneBackend backend{backend_of(rings)};
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
      SCOPED_TRACE(std::string{rings ? "rings" : "heap"} + " jobs=" +
                   std::to_string(jobs));
      EXPECT_EQ(reference, digest(s, RunOptions{.trials = 8, .jobs = jobs}));
    }
  }
}

// Campaign workers are fork()ed, so they inherit the process-wide pin.
TEST(DataPlaneDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  svc::CampaignSpec spec;
  spec.scenarios = {clique_tdown(), internet_tlong()};
  spec.run.trials = 4;
  spec.run.jobs = 1;
  spec.unit_trials = 1;

  // Reference: the in-process serial runner under the default backend.
  std::vector<TrialSet> sets;
  for (const Scenario& s : spec.scenarios) sets.push_back(run_trials(s, spec.run));
  const std::uint64_t expected = svc::campaign_digest(sets);

  for (const bool rings : {false, true}) {
    const fwd::ScopedPlaneBackend backend{backend_of(rings)};
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(std::string{rings ? "rings" : "heap"} +
                   " workers=" + std::to_string(workers));
      EXPECT_EQ(svc::run_campaign(spec, workers).digest, expected);
    }
  }
}

TEST(DataPlaneDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  // Save the converged prelude under one backend, warm-start under the
  // other (the hop store serializes in backend-invariant ascending
  // (time, seq) order), and require bit-identical snapshot payloads and
  // outcomes.
  const auto capture = [](bool rings) {
    const fwd::ScopedPlaneBackend backend{backend_of(rings)};
    Scenario cold = clique_tdown();
    snap::Snapshot converged;
    cold.save_converged = &converged;
    const ExperimentOutcome out = run_experiment(cold);
    return std::pair{std::move(converged), out.events_fired};
  };
  const auto warm_events = [](const snap::Snapshot& snap, bool rings) {
    const fwd::ScopedPlaneBackend backend{backend_of(rings)};
    Scenario warm = clique_tdown();
    warm.warm_start = &snap;
    return run_experiment(warm).events_fired;
  };

  const auto [heap_snap, heap_fired] = capture(false);
  const auto [ring_snap, ring_fired] = capture(true);
  ASSERT_FALSE(heap_snap.empty());
  EXPECT_EQ(heap_fired, ring_fired);
  // The hop store is serialized in backend-invariant (time, seq) form, so
  // the payload bytes must agree exactly.
  EXPECT_EQ(heap_snap.content_hash(), ring_snap.content_hash());
  EXPECT_EQ(heap_snap.payload(), ring_snap.payload());

  // Cross-restore: heap snapshot under rings and vice versa, checked
  // against the same-backend restores.
  const std::uint64_t reference = warm_events(heap_snap, false);
  EXPECT_EQ(reference, warm_events(heap_snap, true));
  EXPECT_EQ(reference, warm_events(ring_snap, false));
  EXPECT_EQ(reference, warm_events(ring_snap, true));
}

}  // namespace
}  // namespace bgpsim::core
