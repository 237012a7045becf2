// The three experiment drivers (BGP, distance vector, link state), pinned
// in tier-1. For each scenario, trial 0 must keep its trial-set digest, its
// fired-event count, the content hash of its converged prelude snapshot
// and its prelude hash. A warm start from that snapshot must reproduce the
// cold run, and a run with a verified mid-run snapshot round-trip keeps its
// own digest (the probe is one more event), so the restore, echo-check and
// probe paths are pinned as well.
//
// Periodic-refresh DV never drains its event queue, so that driver refuses
// to capture a converged prelude; its case pins the rest.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "core/dv_experiment.hpp"
#include "core/experiment.hpp"
#include "core/ls_experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

struct Pin {
  std::uint64_t digest;
  std::uint64_t events_fired;
  std::uint64_t snapshot_hash;  // 0: the driver captures no prelude
  std::uint64_t prelude_hash;
  std::uint64_t probe_digest;  // with a verified mid-run round-trip
};

std::uint64_t digest_of(const ExperimentOutcome& out) {
  return svc::trialset_digest(assemble_trials(Scenario{}, {out}));
}

/// Runs `scenario` cold (capturing the prelude when `capture`), then warm
/// from that capture, and cold again with a verified mid-run round-trip;
/// checks every run against `pin`.
template <typename S>
void check_pin(S scenario, const std::function<ExperimentOutcome(const S&)>& run,
               std::uint64_t prelude_hash, bool capture, const Pin& pin) {
  snap::Snapshot converged;
  S cold = scenario;
  if (capture) cold.save_converged = &converged;
  const ExperimentOutcome out = run(cold);
  EXPECT_EQ(digest_of(out), pin.digest);
  EXPECT_EQ(out.events_fired, pin.events_fired);
  EXPECT_EQ(prelude_hash, pin.prelude_hash);
  if (capture) {
    ASSERT_FALSE(converged.empty());
    EXPECT_EQ(converged.content_hash(), pin.snapshot_hash);

    S warm = scenario;
    warm.warm_start = &converged;
    const ExperimentOutcome warm_out = run(warm);
    EXPECT_EQ(digest_of(warm_out), pin.digest) << "warm start";
    EXPECT_EQ(warm_out.events_fired, pin.events_fired) << "warm start";
  }

  S probed = scenario;
  probed.snap_roundtrip = SnapRoundtrip::kVerify;
  const ExperimentOutcome probed_out = run(probed);
  EXPECT_EQ(digest_of(probed_out), pin.probe_digest) << "mid-run round-trip";
}

dv::DvConfig triggered_only() {
  dv::DvConfig c;
  c.periodic = sim::SimTime::zero();
  return c;
}

TEST(DriverPins, DvTriggeredCliqueTdown) {
  DvScenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.dv = triggered_only();
  s.seed = 3;
  check_pin<DvScenario>(s, run_dv_experiment, dv_prelude_hash(s),
                        /*capture=*/true,
                        {0xe7b6ec5dc922d8ceULL, 720ULL, 0x5eabacaa1e552f9cULL,
                         0xc8db296452e21789ULL, 0xe74fa5f9a28a1553ULL});
}

TEST(DriverPins, DvPeriodicInternetTlong) {
  DvScenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 30;
  s.topology.topo_seed = 2;
  s.event = EventKind::kTlong;
  s.seed = 4;
  check_pin<DvScenario>(s, run_dv_experiment, dv_prelude_hash(s),
                        /*capture=*/false,
                        {0x583c53a5087954fcULL, 119'764ULL, 0x0ULL,
                         0xf570ab1704bf5924ULL, 0x177a355b93a6672dULL});
}

TEST(DriverPins, LsInternetTlong) {
  LsScenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 30;
  s.topology.topo_seed = 2;
  s.event = EventKind::kTlong;
  s.seed = 5;
  s.snap_roundtrip_after = sim::SimTime::millis(50);  // before LS settles
  check_pin<LsScenario>(s, run_ls_experiment, ls_prelude_hash(s),
                        /*capture=*/true,
                        {0x91668d84fbbc6a64ULL, 7'659ULL, 0x294b2afc28f04f4cULL,
                         0x1ad9bf4ef2fe1e6eULL, 0x0944cf1c9226a7b3ULL});
}

TEST(DriverPins, LsCliqueTdown) {
  LsScenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.seed = 6;
  s.snap_roundtrip_after = sim::SimTime::millis(50);
  check_pin<LsScenario>(s, run_ls_experiment, ls_prelude_hash(s),
                        /*capture=*/true,
                        {0x6bf6401e91cec205ULL, 680ULL, 0x84f7906479505f66ULL,
                         0xac229539b60e7804ULL, 0x7b59ee51865006f8ULL});
}

TEST(DriverPins, BgpCliqueFlap) {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kFlap;
  s.seed = 7;
  check_pin<Scenario>(s, run_experiment, scenario_prelude_hash(s),
                      /*capture=*/true,
                      {0xdd2b88948da885a5ULL, 4'908ULL, 0x01112d2808dc84e8ULL,
                       0x94f86daa9c3129c1ULL, 0x27bcdb5982d77444ULL});
}

TEST(DriverPins, BgpCliqueFourPrefixTdown) {
  Scenario s;
  s.topology.kind = TopologyKind::kClique;
  s.topology.size = 6;
  s.event = EventKind::kTdown;
  s.prefixes = 4;
  s.origins = {2, 4};
  s.seed = 8;
  check_pin<Scenario>(s, run_experiment, scenario_prelude_hash(s),
                      /*capture=*/true,
                      {0x299143806afb83fdULL, 71'478ULL, 0xcec3d92d159b9687ULL,
                       0x70b9a972f571c801ULL, 0x247cd105a3d221b0ULL});
}

}  // namespace
}  // namespace bgpsim::core
