// Property-style invariants checked across topology × protocol × seed
// sweeps (TEST_P).
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <tuple>

#include "bgp/network.hpp"
#include "metrics/loop_detector.hpp"
#include "topo/generators.hpp"
#include "topo/internet.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

enum class TopoCase { kClique8, kBClique5, kRing7, kGrid33, kInternet29 };

net::Topology build(TopoCase t, std::uint64_t seed) {
  switch (t) {
    case TopoCase::kClique8:
      return topo::make_clique(8);
    case TopoCase::kBClique5:
      return topo::make_bclique(5);
    case TopoCase::kRing7:
      return topo::make_ring(7);
    case TopoCase::kGrid33:
      return topo::make_grid(3, 3);
    case TopoCase::kInternet29:
      return topo::make_internet_preset(29, seed);
  }
  return net::Topology{};
}

std::string topo_name(TopoCase t) {
  switch (t) {
    case TopoCase::kClique8:
      return "Clique8";
    case TopoCase::kBClique5:
      return "BClique5";
    case TopoCase::kRing7:
      return "Ring7";
    case TopoCase::kGrid33:
      return "Grid33";
    case TopoCase::kInternet29:
      return "Internet29";
  }
  return "?";
}

using Param = std::tuple<TopoCase, Enhancement, std::uint64_t /*seed*/>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return topo_name(std::get<0>(info.param)) + "_" +
         std::string{to_string(std::get<1>(info.param))} + "_s" +
         std::to_string(std::get<2>(info.param));
}

class InvariantTest : public ::testing::TestWithParam<Param> {
 protected:
  void run_scenario() {
    const auto [topo_case, enhancement, seed] = GetParam();
    topo_ = build(topo_case, seed);

    BgpConfig config;
    config.mrai = sim::SimTime::seconds(30);
    config = config.with(enhancement);

    network_.emplace(sim_, topo_, config,
                     net::ProcessingDelay{sim::SimTime::millis(100),
                                          sim::SimTime::millis(500)},
                     sim::Rng{seed}, test::paths(), 1);

    // P2 (no node ever installs a path containing itself twice / through
    // itself) and P3 (announced paths follow topology edges) are asserted
    // continuously via the best-changed hook.
    network_->set_hooks(Speaker::Hooks{
        .on_update_sent = nullptr,
        .on_best_changed =
            [this](net::NodeId node, net::Prefix,
                   const std::optional<AsPath>& best) {
              if (!best) return;
              check_path_validity(node, *best);
            },
    });

    detector_.emplace(topo_.node_count());
    metrics::LoopDetector::attach(sim_, network_->fibs(), {&*detector_, 1});

    sim_.schedule_at(sim::SimTime::zero(),
                     [&] { network_->originate(0, kP); });
    sim_.run();
    ASSERT_FALSE(network_->busy());
  }

  void check_path_validity(net::NodeId node, const AsPath& path) {
    // Path starts at the node itself and ends at the origin.
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.first_hop(), node);
    // P2: no duplicates (in particular the node appears exactly once).
    const auto hops = path.hops();
    for (std::size_t i = 0; i < hops.size(); ++i) {
      for (std::size_t j = i + 1; j < hops.size(); ++j) {
        EXPECT_NE(hops[i], hops[j])
            << "duplicate AS in " << path.to_string();
      }
    }
    // P3: consecutive hops are topology edges.
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      EXPECT_TRUE(topo_.link_between(hops[i], hops[i + 1]).has_value())
          << "non-edge in " << path.to_string();
    }
  }

  void inject_event_and_drain() {
    const auto [topo_case, enhancement, seed] = GetParam();
    const auto t_event = sim_.now() + sim::SimTime::seconds(5);
    if (topo_case == TopoCase::kBClique5) {
      // Tlong on the B-Clique's direct attachment.
      sim_.schedule_at(t_event, [&] {
        network_->inject_link_failure(topo::bclique_tlong_link(topo_, 5));
      });
    } else {
      sim_.schedule_at(t_event, [&] { network_->inject_tdown(0, kP); });
    }
    sim_.run();
    ASSERT_FALSE(network_->busy());
  }

  sim::Simulator sim_;
  net::Topology topo_;
  std::optional<BgpNetwork> network_;
  std::optional<metrics::LoopDetector> detector_;
};

TEST_P(InvariantTest, QuiescentStateIsLoopFreeAndShortest) {
  run_scenario();
  detector_->finalize(sim_.now());
  // P1a: no active forwarding loop at quiescence.
  EXPECT_EQ(detector_->active_count(), 0u);
  // P1b: selected paths are shortest paths.
  const auto dist = topo_.bfs_distances(0);
  for (net::NodeId v = 1; v < topo_.node_count(); ++v) {
    const AsPath* loc = network_->speaker(v).best_path(kP);
    ASSERT_NE(loc, nullptr) << "node " << v;
    EXPECT_EQ(loc->length(), dist[v] + 1) << "node " << v;
  }
}

TEST_P(InvariantTest, PostEventQuiescenceIsConsistent) {
  run_scenario();
  inject_event_and_drain();
  detector_->finalize(sim_.now());
  EXPECT_EQ(detector_->active_count(), 0u);

  const auto [topo_case, enhancement, seed] = GetParam();
  if (topo_case == TopoCase::kBClique5) {
    // Tlong: everyone reconverges to valid (longer) paths.
    const auto dist = topo_.bfs_distances(0);
    for (net::NodeId v = 1; v < topo_.node_count(); ++v) {
      const AsPath* loc = network_->speaker(v).best_path(kP);
      ASSERT_NE(loc, nullptr) << "node " << v;
      EXPECT_EQ(loc->length(), dist[v] + 1) << "node " << v;
    }
  } else {
    // Tdown: everyone ends unreachable, FIBs empty.
    for (net::NodeId v = 0; v < topo_.node_count(); ++v) {
      EXPECT_EQ(network_->speaker(v).best_path(kP), nullptr)
          << "node " << v;
      EXPECT_FALSE(network_->fibs()[v].next_hop(kP).has_value())
          << "node " << v;
    }
  }
  // No messages stuck anywhere.
  EXPECT_EQ(network_->transport().messages_in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvariantTest,
    ::testing::Combine(
        ::testing::Values(TopoCase::kClique8, TopoCase::kBClique5,
                          TopoCase::kRing7, TopoCase::kGrid33,
                          TopoCase::kInternet29),
        ::testing::Values(Enhancement::kStandard, Enhancement::kSsld,
                          Enhancement::kWrate, Enhancement::kAssertion,
                          Enhancement::kGhostFlushing),
        ::testing::Values(1u, 2u, 3u)),
    param_name);

}  // namespace
}  // namespace bgpsim::bgp
