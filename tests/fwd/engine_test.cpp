#include "fwd/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topo/generators.hpp"

namespace bgpsim::fwd {
namespace {

constexpr net::Prefix kPrefix = 0;

struct Fate {
  std::uint64_t id;
  PacketFate fate;
  net::NodeId where;
  sim::SimTime when;
  int hops;
};

/// Flattens batched fate deliveries back into one record per packet so the
/// assertions below stay order-sensitive across backends.
class FateRecorder final : public FateSink {
 public:
  void on_fates(std::span<const FateRecord> batch) override {
    for (const FateRecord& r : batch) {
      fates.push_back(
          Fate{r.packet.id, r.fate, r.where, r.when, r.packet.hops_taken});
    }
  }
  std::vector<Fate> fates;
};

/// Every test runs under both hop-store backends (heap and per-tick
/// rings); the fixture pins the backend explicitly through
/// DataPlaneOptions.
class DataPlaneTest : public ::testing::TestWithParam<PlaneBackend> {
 protected:
  explicit DataPlaneTest(net::Topology topo = topo::make_chain(4))
      : topo_{std::move(topo)},
        fibs_(topo_.node_count()),
        plane_{sim_, topo_, fibs_, [] {
          DataPlaneOptions options = DataPlaneOptions::single(0);
          options.backend = GetParam();
          return options;
        }()} {
    plane_.set_fate_sink(&recorder_);
  }

  /// Point every node's next hop down the chain toward node 0.
  void install_chain_routes() {
    for (net::NodeId n = 1; n < topo_.node_count(); ++n) {
      fibs_[n].set_next_hop(kPrefix, n - 1);
    }
  }

  [[nodiscard]] std::vector<Fate>& fates_() { return recorder_.fates; }

  sim::Simulator sim_;
  net::Topology topo_;
  std::vector<Fib> fibs_;
  DataPlane plane_;
  FateRecorder recorder_;
};

TEST_P(DataPlaneTest, UsesRequestedBackend) {
  EXPECT_EQ(plane_.backend(), GetParam());
}

TEST_P(DataPlaneTest, DeliversAlongChain) {
  install_chain_routes();
  plane_.inject(Injection{.source = 3});
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kDelivered);
  EXPECT_EQ(fates_()[0].where, 0u);
  EXPECT_EQ(fates_()[0].hops, 3);
  // 3 hops at 2 ms each.
  EXPECT_EQ(fates_()[0].when, sim::SimTime::millis(6));
}

TEST_P(DataPlaneTest, InjectionAtDestinationDeliversInstantly) {
  plane_.inject(Injection{.source = 0});
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kDelivered);
  EXPECT_EQ(fates_()[0].hops, 0);
  EXPECT_EQ(fates_()[0].when, sim::SimTime::zero());
}

TEST_P(DataPlaneTest, NoRouteDropsAtOrigin) {
  plane_.inject(Injection{.source = 2});  // no FIB entries installed
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kNoRoute);
  EXPECT_EQ(fates_()[0].where, 2u);
}

TEST_P(DataPlaneTest, NoRouteDropsMidPath) {
  fibs_[3].set_next_hop(kPrefix, 2);
  fibs_[2].set_next_hop(kPrefix, 1);
  // node 1 has no route.
  plane_.inject(Injection{.source = 3});
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kNoRoute);
  EXPECT_EQ(fates_()[0].where, 1u);
}

TEST_P(DataPlaneTest, LinkDownDrop) {
  install_chain_routes();
  topo_.set_link_state(*topo_.link_between(1, 0), false);
  plane_.inject(Injection{.source = 3});
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kLinkDown);
  EXPECT_EQ(fates_()[0].where, 1u);
}

TEST_P(DataPlaneTest, TtlExhaustionInLoop) {
  // 2-node loop between 2 and 3.
  fibs_[3].set_next_hop(kPrefix, 2);
  fibs_[2].set_next_hop(kPrefix, 3);
  plane_.inject(Injection{.source = 3, .ttl = 10});
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kTtlExhausted);
  // 10 TTL decrements happen on the 10th forwarding attempt; the packet
  // dies at the node attempting the 10th hop after 9 completed hops.
  EXPECT_EQ(fates_()[0].hops, 9);
  EXPECT_EQ(fates_()[0].when, sim::SimTime::millis(18));
}

TEST_P(DataPlaneTest, DefaultTtlGives256msLifetime) {
  fibs_[3].set_next_hop(kPrefix, 2);
  fibs_[2].set_next_hop(kPrefix, 3);
  plane_.inject(Injection{.source = 3});  // TTL 128
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kTtlExhausted);
  // 127 full hops, dies attempting the 128th: t = 127 * 2 ms.
  EXPECT_EQ(fates_()[0].when, sim::SimTime::millis(254));
}

TEST_P(DataPlaneTest, FibChangeMidFlightRedirectsPacket) {
  install_chain_routes();
  // Point node 2 into a loop with 3 initially.
  fibs_[2].set_next_hop(kPrefix, 3);
  fibs_[3].set_next_hop(kPrefix, 2);
  plane_.inject(Injection{.source = 3, .ttl = 100});
  // After 5 ms (packet bouncing), heal node 2's route.
  sim_.schedule_at(sim::SimTime::millis(5),
                   [&] { fibs_[2].set_next_hop(kPrefix, 1); });
  sim_.run();
  ASSERT_EQ(fates_().size(), 1u);
  EXPECT_EQ(fates_()[0].fate, PacketFate::kDelivered);
}

TEST_P(DataPlaneTest, CountersAggregate) {
  install_chain_routes();
  plane_.inject(Injection{.source = 3});  // in flight toward 2 when the
                                          // route there vanishes
  plane_.inject(Injection{.source = 1});  // one hop: delivered before any
                                          // change matters
  fibs_[2].clear_route(kPrefix);
  plane_.inject(Injection{.source = 3});  // also dies at 2
  sim_.run();
  const auto& c = plane_.counters();
  EXPECT_EQ(c.injected, 3u);
  EXPECT_EQ(c.delivered, 1u);
  EXPECT_EQ(c.no_route, 2u);
  EXPECT_EQ(plane_.in_flight(), 0u);
}

TEST_P(DataPlaneTest, ManyConcurrentPacketsAllTerminate) {
  install_chain_routes();
  for (int i = 0; i < 500; ++i) {
    plane_.inject(Injection{.source = 3});
    plane_.inject(Injection{.source = 2});
  }
  sim_.run();
  EXPECT_EQ(fates_().size(), 1000u);
  EXPECT_EQ(plane_.counters().delivered, 1000u);
  EXPECT_EQ(plane_.in_flight(), 0u);
}

TEST_P(DataPlaneTest, PacketIdsAreUnique) {
  install_chain_routes();
  const auto a = plane_.inject(Injection{.source = 1});
  const auto b = plane_.inject(Injection{.source = 2});
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DataPlaneTest,
    ::testing::Values(PlaneBackend::kHeap, PlaneBackend::kRings),
    [](const ::testing::TestParamInfo<PlaneBackend>& info) {
      return info.param == PlaneBackend::kHeap ? "heap" : "rings";
    });

}  // namespace
}  // namespace bgpsim::fwd
