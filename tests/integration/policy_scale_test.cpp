// Policy routing end to end on the new scale path: exact Gao-Rexford RIBs
// on a hand-built fixture, valley-free export filtering, digest equality
// across execution modes, and a 10k-node run under the full oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "check/oracle.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"
#include "support/paths.hpp"

namespace bgpsim {
namespace {

constexpr net::Prefix kP = 0;

/// Run one origination to quiescence and return each node's Loc-RIB best
/// (empty path = unreachable).
std::vector<bgp::AsPath> converge(net::Topology& topo,
                                  const net::RelationshipTable& rel,
                                  net::NodeId dest) {
  sim::Simulator simulator;
  bgp::BgpConfig config;
  config.policy = &rel;
  bgp::BgpNetwork network{simulator, topo, config,
                          net::ProcessingDelay{sim::SimTime::millis(1),
                                               sim::SimTime::millis(1)},
                          sim::Rng{5}, test::paths(), 1};
  simulator.schedule_at(sim::SimTime::zero(),
                        [&] { network.originate(dest, kP); });
  simulator.run();
  EXPECT_FALSE(network.busy());
  std::vector<bgp::AsPath> best(topo.node_count());
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    const bgp::AsPath* loc = network.speaker(v).best_path(kP);
    if (loc) best[v] = *loc;
  }
  return best;
}

TEST(PolicyFixture, FiveAsFixtureConvergesToTheKnownRibs) {
  // 0 -- 1 peering at the top; 0 and 1 both provide for 2; 1 provides for
  // 3; 2 provides for 4. Destination 4 is 2's customer.
  //
  //        0 ===== 1
  //         \     /|
  //          \   / |
  //            2   3
  //            |
  //            4  (origin)
  net::Topology topo;
  topo.add_nodes(5);
  topo.add_link(0, 1);
  topo.add_link(0, 2);
  topo.add_link(1, 2);
  topo.add_link(1, 3);
  topo.add_link(2, 4);
  net::RelationshipTable rel;
  rel.set_peering(0, 1);
  rel.set_provider_customer(0, 2);
  rel.set_provider_customer(1, 2);
  rel.set_provider_customer(1, 3);
  rel.set_provider_customer(2, 4);

  const auto best = converge(topo, rel, 4);
  // 1 hears [1,0,2,4] from its peer 0 too, but the customer route through
  // 2 wins on local preference despite equal or longer competition never
  // arising; 3 only ever hears its provider 1.
  EXPECT_EQ(best[0], test::path_of({0, 2, 4}));
  EXPECT_EQ(best[1], test::path_of({1, 2, 4}));
  EXPECT_EQ(best[2], test::path_of({2, 4}));
  EXPECT_EQ(best[3], test::path_of({3, 1, 2, 4}));
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    if (v == 4 || best[v].length() == 0) continue;
    EXPECT_TRUE(bgp::valley_free(rel, best[v])) << "node " << v;
  }
}

TEST(PolicyFixture, NoFreeTransitHidesPeerRoutesFromProviders) {
  // 0 provides for 1; 1 peers with 2; 2 provides for 3 (the origin).
  // 1 learns the route from its peer 2 and must NOT pass it up to its
  // provider 0 — 0 stays unreachable, exactly the no-free-transit rule.
  net::Topology topo;
  topo.add_nodes(4);
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  net::RelationshipTable rel;
  rel.set_provider_customer(0, 1);
  rel.set_peering(1, 2);
  rel.set_provider_customer(2, 3);

  const auto best = converge(topo, rel, 3);
  EXPECT_EQ(best[2], test::path_of({2, 3}));
  EXPECT_EQ(best[1], test::path_of({1, 2, 3}));
  EXPECT_EQ(best[0].length(), 0u) << "peer-learned route leaked upstream: "
                                  << best[0].to_string();
}

core::Scenario policy_scenario(std::size_t nodes) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kAsGraph;
  s.topology.size = nodes;
  s.topology.topo_seed = 1;
  s.event = core::EventKind::kTdown;
  s.policy_routing = true;
  s.bgp.mrai = sim::SimTime::seconds(5);
  s.seed = 1;
  return s;
}

TEST(PolicyScale, DigestsAreIdenticalAcrossJobsAndWorkers) {
  const core::Scenario s = policy_scenario(128);
  core::RunOptions options;
  options.trials = 4;

  options.jobs = 1;
  const std::uint64_t expected =
      svc::trialset_digest(core::run_trials(s, options));
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    options.jobs = jobs;
    EXPECT_EQ(svc::trialset_digest(core::run_trials(s, options)), expected)
        << "jobs=" << jobs;
  }

  svc::CampaignSpec spec;
  spec.scenarios = {s};
  spec.run.trials = options.trials;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto result = svc::run_campaign(spec, workers);
    ASSERT_EQ(result.sets.size(), 1u);
    EXPECT_EQ(svc::trialset_digest(result.sets[0]), expected)
        << "workers=" << workers;
  }
}

TEST(PolicyScale, TenThousandNodesRunToQuiescenceUnderTheOracle) {
  core::Scenario s = policy_scenario(10000);
  check::Oracle oracle = check::Oracle::standard();
  s.oracle = &oracle;
  const auto out = core::run_experiment(s);
  EXPECT_TRUE(oracle.ok()) << oracle.summary();
  EXPECT_GT(oracle.observations(), 0u);
  EXPECT_GT(out.metrics.convergence_time_s, 0.0);
}

}  // namespace
}  // namespace bgpsim
