// Mid-run snapshot round-trip bit-equivalence.
//
// Every case runs one scenario twice: once with a no-op probe scheduled
// mid-run (SnapRoundtrip::kNoop) and once where that probe serializes the
// entire simulation, restores it in place, and re-serializes
// (SnapRoundtrip::kVerify — the driver itself throws if the re-encode
// differs byte-for-byte). Both passes must then finish with identical
// outcomes: a snapshot round-trip is invisible to the simulation.
#include <cstdint>

#include <gtest/gtest.h>

#include "bgp/config.hpp"
#include "check/oracle.hpp"
#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/ls_experiment.hpp"
#include "core/scenario.hpp"
#include "support/outcome_digest.hpp"

namespace bgpsim {
namespace {

using test::outcome_digest;

TEST(SnapRoundtrip, BgpEveryEnhancementEveryEvent) {
  for (const bgp::Enhancement enh : bgp::kAllEnhancements) {
    for (const core::EventKind event :
         {core::EventKind::kTdown, core::EventKind::kTlong,
          core::EventKind::kFlap}) {
      core::Scenario s;
      s.topology.kind = core::TopologyKind::kClique;
      s.topology.size = 6;
      s.event = event;
      s.bgp = s.bgp.with(enh);
      s.bgp.mrai = sim::SimTime::seconds(5);
      s.seed = 11;
      s.snap_roundtrip_after = sim::SimTime::seconds(2);

      s.snap_roundtrip = core::SnapRoundtrip::kNoop;
      check::Oracle baseline_oracle = check::Oracle::standard();
      s.oracle = &baseline_oracle;
      const core::ExperimentOutcome baseline = core::run_experiment(s);

      s.snap_roundtrip = core::SnapRoundtrip::kVerify;
      check::Oracle verify_oracle = check::Oracle::standard();
      s.oracle = &verify_oracle;
      const core::ExperimentOutcome verified = core::run_experiment(s);

      EXPECT_TRUE(verify_oracle.ok()) << s.label();
      EXPECT_EQ(outcome_digest(baseline), outcome_digest(verified))
          << s.label() << ": a mid-run save/restore changed the outcome";
    }
  }
}

TEST(SnapRoundtrip, BgpWithSilentAndPromotedMraiTimersLive) {
  // A probe 1.5 s after the event, well inside the 30-s MRAI: the speakers
  // hold timers that expire silently (their ledger deadlines) and timers
  // promoted to queued events by a held decision, in both the single- and
  // the multi-prefix planes. The in-place restore must pair each record
  // back up with its deadline or its queued closure, and the rest of the
  // run must not notice.
  for (const std::size_t prefixes : {std::size_t{1}, std::size_t{8}}) {
    core::Scenario s;
    s.topology.kind = core::TopologyKind::kInternet;
    s.topology.size = 40;
    s.event = core::EventKind::kTdown;
    s.bgp.mrai = sim::SimTime::seconds(30);
    s.seed = 7;
    s.prefixes = prefixes;
    if (prefixes > 1) s.origins = {3, 17};
    s.snap_roundtrip_after = sim::SimTime::millis(1500);

    s.snap_roundtrip = core::SnapRoundtrip::kNoop;
    const core::ExperimentOutcome baseline = core::run_experiment(s);
    s.snap_roundtrip = core::SnapRoundtrip::kVerify;
    check::Oracle oracle = check::Oracle::standard();
    s.oracle = &oracle;
    const core::ExperimentOutcome verified = core::run_experiment(s);

    EXPECT_TRUE(oracle.ok()) << s.label() << "\n" << oracle.summary();
    EXPECT_EQ(outcome_digest(baseline), outcome_digest(verified))
        << s.label() << ": a mid-run save/restore changed the outcome";
  }
}

TEST(SnapRoundtrip, BgpWithQueuedUpdatesNamingArenaPaths) {
  // A probe 600 ms after a correlated Tdown (every prefix at the
  // destination, 5-s MRAI): the processing queues hold the withdrawals and
  // the announcements of path hunting, single UpdateMsgs at P = 1 and
  // UpdateBatches of eight at P = 8, each path a ref into the arena
  // section. The in-place restore finds every arena node already present
  // and must check them, not add them, so the re-save is byte-identical
  // and the rest of the run does not notice.
  for (const std::size_t prefixes : {std::size_t{1}, std::size_t{8}}) {
    core::Scenario s;
    s.topology.kind = core::TopologyKind::kInternet;
    s.topology.size = 40;
    s.event = core::EventKind::kTdown;
    s.bgp.mrai = sim::SimTime::seconds(5);
    s.seed = 9;
    s.prefixes = prefixes;
    s.snap_roundtrip_after = sim::SimTime::millis(600);

    s.snap_roundtrip = core::SnapRoundtrip::kNoop;
    const core::ExperimentOutcome baseline = core::run_experiment(s);
    s.snap_roundtrip = core::SnapRoundtrip::kVerify;
    check::Oracle oracle = check::Oracle::standard();
    s.oracle = &oracle;
    const core::ExperimentOutcome verified = core::run_experiment(s);

    EXPECT_TRUE(oracle.ok()) << s.label() << "\n" << oracle.summary();
    EXPECT_EQ(outcome_digest(baseline), outcome_digest(verified))
        << s.label() << ": a mid-run save/restore changed the outcome";
  }
}

TEST(SnapRoundtrip, DvTriggeredOnlyAndPeriodic) {
  struct Case {
    core::EventKind event;
    bool periodic;
  };
  for (const Case c : {Case{core::EventKind::kTdown, false},
                       Case{core::EventKind::kTlong, false},
                       Case{core::EventKind::kTdown, true}}) {
    core::DvScenario s;
    s.topology.kind = core::TopologyKind::kClique;
    s.topology.size = 6;
    s.event = c.event;
    if (!c.periodic) s.dv.periodic = sim::SimTime::zero();
    s.seed = 11;
    s.snap_roundtrip_after = sim::SimTime::seconds(2);

    s.snap_roundtrip = core::SnapRoundtrip::kNoop;
    const core::ExperimentOutcome baseline = core::run_dv_experiment(s);

    s.snap_roundtrip = core::SnapRoundtrip::kVerify;
    const core::ExperimentOutcome verified = core::run_dv_experiment(s);

    EXPECT_EQ(outcome_digest(baseline), outcome_digest(verified))
        << "dv event " << static_cast<int>(c.event) << " periodic "
        << c.periodic;
  }
}

TEST(SnapRoundtrip, LsLinkAndRouteEvents) {
  for (const core::EventKind event :
       {core::EventKind::kTdown, core::EventKind::kTlong}) {
    core::LsScenario s;
    s.topology.kind = core::TopologyKind::kRing;
    s.topology.size = 6;
    s.event = event;
    s.seed = 11;
    s.snap_roundtrip_after = sim::SimTime::millis(500);

    s.snap_roundtrip = core::SnapRoundtrip::kNoop;
    const core::ExperimentOutcome baseline = core::run_ls_experiment(s);

    s.snap_roundtrip = core::SnapRoundtrip::kVerify;
    const core::ExperimentOutcome verified = core::run_ls_experiment(s);

    EXPECT_EQ(outcome_digest(baseline), outcome_digest(verified))
        << "ls event " << static_cast<int>(event);
  }
}

// A probe at the default offset must fire before the run drains: a kNoop
// run fires exactly one event more than a run without the probe. A default
// later than the run's quiet point would leave kVerify checking nothing.
template <typename S>
void expect_default_probe_fires(
    S s, core::ExperimentOutcome (*run)(const S&), const char* what) {
  s.snap_roundtrip = core::SnapRoundtrip::kOff;
  const std::uint64_t off = run(s).events_fired;
  s.snap_roundtrip = core::SnapRoundtrip::kNoop;
  EXPECT_EQ(run(s).events_fired, off + 1) << what;
}

TEST(SnapRoundtrip, LsDefaultOffsetProbeFires) {
  core::LsScenario ring;
  ring.topology.kind = core::TopologyKind::kRing;
  ring.topology.size = 6;
  ring.seed = 11;
  for (const core::EventKind event :
       {core::EventKind::kTdown, core::EventKind::kTlong}) {
    ring.event = event;
    expect_default_probe_fires(ring, core::run_ls_experiment, "ring-6");
  }

  core::LsScenario clique;
  clique.topology.kind = core::TopologyKind::kClique;
  clique.topology.size = 6;
  clique.event = core::EventKind::kTdown;
  clique.seed = 6;
  expect_default_probe_fires(clique, core::run_ls_experiment, "clique-6");

  core::LsScenario internet;
  internet.topology.kind = core::TopologyKind::kInternet;
  internet.topology.size = 30;
  internet.topology.topo_seed = 2;
  internet.event = core::EventKind::kTlong;
  internet.seed = 5;
  expect_default_probe_fires(internet, core::run_ls_experiment,
                             "internet-30");
}

TEST(SnapRoundtrip, DvDefaultOffsetProbeFires) {
  for (const bool periodic : {false, true}) {
    core::DvScenario clique;
    clique.topology.kind = core::TopologyKind::kClique;
    clique.topology.size = 6;
    clique.event = core::EventKind::kTdown;
    if (!periodic) clique.dv.periodic = sim::SimTime::zero();
    clique.seed = 3;
    expect_default_probe_fires(clique, core::run_dv_experiment,
                               periodic ? "clique-6 periodic" : "clique-6");

    core::DvScenario internet;
    internet.topology.kind = core::TopologyKind::kInternet;
    internet.topology.size = 30;
    internet.topology.topo_seed = 2;
    internet.event = core::EventKind::kTlong;
    if (!periodic) internet.dv.periodic = sim::SimTime::zero();
    internet.seed = 4;
    expect_default_probe_fires(internet, core::run_dv_experiment,
                               periodic ? "internet-30 periodic"
                                        : "internet-30");
  }
}

}  // namespace
}  // namespace bgpsim
