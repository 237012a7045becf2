// The timer-wheel scheduler must be invisible in the output: every digest
// — serial, thread-parallel, and multi-process — must be bit-identical
// with BGPSIM_TIMER_WHEEL on and off, and snapshots taken under one
// backend must restore (and verify) under the other. The heap is the
// reference; any divergence here means the wheel changed observable
// behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/run_options.hpp"
#include "core/sweep.hpp"
#include "sim/event_queue.hpp"
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

/// The dimensions whose hot paths the wheel reorders internally: MRAI
/// bursts under each enhancement, flap re-arming, and policy routing.
std::vector<std::pair<std::string, Scenario>> scenario_matrix() {
  std::vector<std::pair<std::string, Scenario>> matrix;
  matrix.emplace_back("clique-tdown", clique_tdown());
  matrix.emplace_back("internet-tlong", internet_tlong());
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

/// RAII: pin BGPSIM_TIMER_WHEEL itself — the svc campaign path must be
/// exercised through the real knob because workers are separate processes
/// (RunOptions never crosses the wire; each worker resolves the backend
/// from its own environment at Simulator construction).
class EnvKnob {
 public:
  EnvKnob(const char* name, const char* value) : name_{name} {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~EnvKnob() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvKnob(const EnvKnob&) = delete;
  EnvKnob& operator=(const EnvKnob&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(WheelDigestEquivTest, RunOptionsLeverIsOutputInvariant) {
  for (const auto& [name, s] : scenario_matrix()) {
    SCOPED_TRACE(name);
    const std::uint64_t wheel =
        digest(s, RunOptions{.trials = 2, .jobs = 1, .timer_wheel = true});
    const std::uint64_t heap =
        digest(s, RunOptions{.trials = 2, .jobs = 1, .timer_wheel = false});
    EXPECT_EQ(wheel, heap);
  }
}

TEST(WheelDigestEquivTest, BackendIsOutputInvariantAcrossThreadCounts) {
  // Cross the backend with the fan-out width: every (backend, jobs)
  // combination must land on one digest.
  const Scenario s = internet_tlong();
  const std::uint64_t reference =
      digest(s, RunOptions{.trials = 8, .jobs = 1, .timer_wheel = true});
  for (const bool wheel : {true, false}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
      SCOPED_TRACE(std::string{wheel ? "wheel" : "heap"} + " jobs=" +
                   std::to_string(jobs));
      EXPECT_EQ(reference, digest(s, RunOptions{.trials = 8, .jobs = jobs,
                                                .timer_wheel = wheel}));
    }
  }
}

TEST(WheelDigestEquivTest, CampaignWorkersFollowTheEnvKnob) {
  svc::CampaignSpec spec;
  spec.scenarios = {clique_tdown(), internet_tlong()};
  spec.run.trials = 4;
  spec.run.jobs = 1;
  spec.unit_trials = 1;

  // Reference: the in-process serial runner under the default backend.
  std::vector<TrialSet> sets;
  for (const Scenario& s : spec.scenarios) sets.push_back(run_trials(s, spec.run));
  const std::uint64_t expected = svc::campaign_digest(sets);

  for (const char* knob : {"0", "1"}) {
    EnvKnob env{"BGPSIM_TIMER_WHEEL", knob};
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(std::string{"BGPSIM_TIMER_WHEEL="} + knob + " workers=" +
                   std::to_string(workers));
      EXPECT_EQ(svc::run_campaign(spec, workers).digest, expected);
    }
  }
}

TEST(WheelDigestEquivTest, SnapshotsAreBackendPortableBothWays) {
  // Save the converged prelude under one backend, warm-start under the
  // other (restore verifies the serialized pending-event set against the
  // live queue), and require bit-identical snapshot payloads and outcomes.
  const auto capture = [](bool wheel) {
    detail::TimerWheelGuard backend{wheel};
    Scenario cold = clique_tdown();
    snap::Snapshot converged;
    cold.save_converged = &converged;
    const ExperimentOutcome out = run_experiment(cold);
    return std::pair{std::move(converged), out.events_fired};
  };
  const auto warm_events = [](const snap::Snapshot& snap, bool wheel) {
    detail::TimerWheelGuard backend{wheel};
    Scenario warm = clique_tdown();
    warm.warm_start = &snap;
    return run_experiment(warm).events_fired;
  };

  const auto [heap_snap, heap_fired] = capture(false);
  const auto [wheel_snap, wheel_fired] = capture(true);
  ASSERT_FALSE(heap_snap.empty());
  EXPECT_EQ(heap_fired, wheel_fired);
  // The pending-event list is serialized in backend-invariant (time, seq)
  // form, so the payload bytes must agree exactly.
  EXPECT_EQ(heap_snap.content_hash(), wheel_snap.content_hash());
  EXPECT_EQ(heap_snap.payload(), wheel_snap.payload());

  // Cross-restore: heap snapshot under the wheel and vice versa, checked
  // against the same-backend restores.
  const std::uint64_t reference = warm_events(heap_snap, false);
  EXPECT_EQ(reference, warm_events(heap_snap, true));
  EXPECT_EQ(reference, warm_events(wheel_snap, false));
  EXPECT_EQ(reference, warm_events(wheel_snap, true));
}

}  // namespace
}  // namespace bgpsim::core
