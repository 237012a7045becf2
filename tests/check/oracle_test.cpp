// End-to-end oracle tests: real experiment runs with the invariant oracle
// attached must come back clean AND non-vacuous, a planted always-fires
// invariant must be caught, and the DV baseline must satisfy the
// protocol-agnostic checks.
#include "check/oracle.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "check/invariants.hpp"
#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/run_options.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace bgpsim::check {
namespace {

core::Scenario base_scenario(core::TopologyKind kind, std::size_t size,
                             core::EventKind event) {
  core::Scenario s;
  s.topology.kind = kind;
  s.topology.size = size;
  s.topology.topo_seed = 5;
  s.event = event;
  s.seed = 31;
  return s;
}

TEST(OracleEndToEnd, StandardInvariantsHoldAcrossEnhancements) {
  for (const bgp::Enhancement e : bgp::kAllEnhancements) {
    core::Scenario s =
        base_scenario(core::TopologyKind::kClique, 6, core::EventKind::kTdown);
    s.bgp = s.bgp.with(e);
    Oracle oracle = Oracle::standard();
    s.oracle = &oracle;
    (void)core::run_experiment(s);
    EXPECT_TRUE(oracle.ok()) << bgp::to_string(e) << "\n" << oracle.summary();
    EXPECT_GT(oracle.observations(), 0u) << bgp::to_string(e);
  }
}

TEST(OracleEndToEnd, StandardInvariantsHoldAcrossEvents) {
  for (const core::EventKind event :
       {core::EventKind::kTdown, core::EventKind::kTup,
        core::EventKind::kTlong, core::EventKind::kFlap}) {
    core::Scenario s =
        base_scenario(core::TopologyKind::kBClique, 4, event);
    Oracle oracle = Oracle::standard();
    s.oracle = &oracle;
    (void)core::run_experiment(s);
    EXPECT_TRUE(oracle.ok()) << to_string(event) << "\n" << oracle.summary();
    EXPECT_GT(oracle.observations(), 0u) << to_string(event);
  }
}

/// Fires on every installed route — a planted defect the oracle must catch
/// (the fuzzer's --canary mode uses the same trick).
class AlwaysFires final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "canary"; }
  void on_route_installed(net::NodeId node, net::Prefix,
                          const std::optional<bgp::AsPath>&,
                          sim::SimTime at) override {
    report(at, node, "canary");
  }
};

TEST(OracleEndToEnd, PlantedInvariantIsCaughtAndReported) {
  core::Scenario s =
      base_scenario(core::TopologyKind::kClique, 5, core::EventKind::kTdown);
  Oracle oracle;
  oracle.add(std::make_unique<AlwaysFires>());
  s.oracle = &oracle;
  (void)core::run_experiment(s);
  EXPECT_FALSE(oracle.ok());
  EXPECT_GT(oracle.violations_seen(), 0u);
  EXPECT_FALSE(oracle.violations().empty());
  EXPECT_NE(oracle.summary().find("canary"), std::string::npos);
  EXPECT_THROW(oracle.throw_if_violated(), std::runtime_error);
  // Stored details are capped; the total count is exact.
  EXPECT_LE(oracle.violations().size(), Oracle::kMaxStored);
  EXPECT_GE(oracle.violations_seen(), oracle.violations().size());
}

TEST(OracleEndToEnd, RearmingClearsPriorViolations) {
  core::Scenario s =
      base_scenario(core::TopologyKind::kClique, 4, core::EventKind::kTdown);
  Oracle oracle;
  oracle.add(std::make_unique<AlwaysFires>());
  s.oracle = &oracle;
  (void)core::run_experiment(s);
  ASSERT_FALSE(oracle.ok());

  // The driver re-arms at the start of the next run; the slate is clean.
  core::Scenario clean =
      base_scenario(core::TopologyKind::kClique, 4, core::EventKind::kTdown);
  Oracle standard = Oracle::standard();
  clean.oracle = &standard;
  (void)core::run_experiment(clean);
  EXPECT_TRUE(standard.ok());
}

TEST(OracleEndToEnd, SharedOracleAcrossTrialsReportsNoFalseViolations) {
  // One oracle armed once per trial by run_trials: every stateful
  // invariant must drop the previous trial's mirrors in arm(). Trial 2
  // warm-starts its FIBs from nothing, so a rib-fib mirror carried over
  // from trial 1 used to contradict every restored route (763 false
  // violations on this 8-prefix table).
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kInternet;
  s.topology.size = 110;
  s.topology.topo_seed = 1;
  s.event = core::EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 1;
  s.destination = 50;
  s.prefixes = 8;
  s.origins = {1, 27, 55, 82};
  Oracle oracle = Oracle::standard();
  core::RunOptions options;
  options.trials = 2;
  options.jobs = 1;
  options.oracle = &oracle;
  (void)core::run_trials(s, options);
  EXPECT_EQ(oracle.violations_seen(), 0u) << oracle.summary();
  EXPECT_GT(oracle.observations(), 0u);
}

/// Counts MRAI expiry callbacks — pins that the scheduler-level hook is
/// actually plumbed through the speaker into the oracle.
class MraiExpiryCounter final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "mrai-counter";
  }
  void on_mrai_expired(net::NodeId, net::NodeId, net::Prefix, bool,
                       sim::SimTime) override {
    ++count;
  }
  std::uint64_t count = 0;
};

TEST(OracleEndToEnd, MraiExpiryHookReachesInvariants) {
  core::Scenario s =
      base_scenario(core::TopologyKind::kClique, 6, core::EventKind::kTdown);
  Oracle oracle;
  auto& counter =
      static_cast<MraiExpiryCounter&>(oracle.add(
          std::make_unique<MraiExpiryCounter>()));
  s.oracle = &oracle;
  (void)core::run_experiment(s);
  EXPECT_GT(counter.count, 0u);
}

TEST(OracleEndToEnd, DvBaselineSatisfiesReferenceInvariant) {
  // DV has no AS paths or MRAI timers, so only the protocol-agnostic
  // reference check applies (see DvScenario::oracle).
  for (const core::EventKind event :
       {core::EventKind::kTdown, core::EventKind::kTup}) {
    core::DvScenario s;
    s.topology.kind = core::TopologyKind::kClique;
    s.topology.size = 5;
    s.topology.topo_seed = 5;
    s.event = event;
    s.seed = 31;
    Oracle oracle;
    oracle.add(std::make_unique<ConvergedReferenceInvariant>());
    s.oracle = &oracle;
    (void)core::run_dv_experiment(s);
    EXPECT_TRUE(oracle.ok()) << to_string(event) << "\n" << oracle.summary();
    EXPECT_GT(oracle.observations(), 0u) << to_string(event);
  }
}

TEST(OracleEndToEnd, DvBaselineRejectsFlap) {
  core::DvScenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 5;
  s.event = core::EventKind::kFlap;
  EXPECT_THROW((void)core::run_dv_experiment(s), std::invalid_argument);
}

}  // namespace
}  // namespace bgpsim::check
