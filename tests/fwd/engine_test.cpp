#include "fwd/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "snap/codec.hpp"
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

// ---- hop-store restore: every malformed store ends in FormatError ------

/// save_state's bytes, decoded into fields a test can corrupt and encoded
/// back.
struct PlaneBytes {
  struct Event {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    std::uint32_t node = 0;
    std::uint64_t id = 0;
    std::uint32_t source = 0;
    std::uint32_t prefix = 0;
    std::int64_t ttl = 0;
    std::int64_t sent_at = 0;
    std::int64_t hops = 0;
  };
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t counters[6] = {};
  bool armed = false;
  std::int64_t bridge_time = 0;
  std::uint64_t bridge_seq = 0;
  std::uint64_t count = 0;  // the stored event count, as written
  std::vector<Event> events;

  static PlaneBytes of(const DataPlane& plane) {
    snap::Writer w;
    plane.save_state(w);
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    snap::Reader r{bytes};
    PlaneBytes b;
    b.next_seq = r.u64();
    b.next_id = r.u64();
    b.in_flight = r.u64();
    for (std::uint64_t& c : b.counters) c = r.u64();
    b.armed = r.b();
    b.bridge_time = r.i64();
    if (b.armed) b.bridge_seq = r.u64();
    b.count = r.u64();
    for (std::uint64_t i = 0; i < b.count; ++i) {
      Event e;
      e.at = r.i64();
      e.seq = r.u64();
      e.node = r.u32();
      e.id = r.u64();
      e.source = r.u32();
      e.prefix = r.u32();
      e.ttl = r.i64();
      e.sent_at = r.i64();
      e.hops = r.i64();
      b.events.push_back(e);
    }
    r.finish();
    return b;
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::Writer w;
    w.u64(next_seq);
    w.u64(next_id);
    w.u64(in_flight);
    for (const std::uint64_t c : counters) w.u64(c);
    w.b(armed);
    w.i64(bridge_time);
    if (armed) w.u64(bridge_seq);
    w.u64(count);
    for (const Event& e : events) {
      w.i64(e.at);
      w.u64(e.seq);
      w.u32(e.node);
      w.u64(e.id);
      w.u32(e.source);
      w.u32(e.prefix);
      w.i64(e.ttl);
      w.i64(e.sent_at);
      w.i64(e.hops);
    }
    return std::move(w).take();
  }
};

/// Two packets in flight on a chain of 4 (prefix 0 toward node 0; prefix
/// 1 has no destination), checkpointed mid-hop.
class DataPlaneRestoreTest : public ::testing::TestWithParam<PlaneBackend> {
 protected:
  DataPlaneRestoreTest()
      : topo_{topo::make_chain(4)},
        fibs_(topo_.node_count()),
        plane_{sim_, topo_, fibs_, [] {
          DataPlaneOptions options;
          options.destinations = {0, net::kInvalidNode};
          options.backend = GetParam();
          return options;
        }()} {
    plane_.set_fate_sink(&recorder_);
    for (net::NodeId n = 1; n < topo_.node_count(); ++n) {
      fibs_[n].set_next_hop(kPrefix, n - 1);
    }
    plane_.inject(Injection{.source = 3});
    plane_.inject(Injection{.source = 2});
    sim_.schedule_at(sim::SimTime::millis(1), [] {});  // the clock's 1 ms
    sim_.run_until(sim::SimTime::millis(1));
    live_ = PlaneBytes::of(plane_);
  }

  /// Whatever a test restored or failed to, both packets end.
  void TearDown() override {
    sim_.run();
    EXPECT_EQ(recorder_.fates.size(), 2u);
    EXPECT_EQ(plane_.in_flight(), 0u);
  }

  /// Restoring `corrupt(live bytes)` must end in FormatError and change
  /// nothing.
  void expect_rejected(const std::function<void(PlaneBytes&)>& corrupt) {
    PlaneBytes bad = live_;
    corrupt(bad);
    const std::vector<std::uint8_t> bytes = bad.bytes();
    snap::Reader r{bytes};
    EXPECT_THROW(plane_.restore_state(r), snap::FormatError);
    EXPECT_EQ(PlaneBytes::of(plane_).bytes(), live_.bytes());
  }

  sim::Simulator sim_;
  net::Topology topo_;
  std::vector<Fib> fibs_;
  DataPlane plane_;
  FateRecorder recorder_;
  PlaneBytes live_;
};

TEST_P(DataPlaneRestoreTest, CheckpointHoldsTheInFlightPackets) {
  ASSERT_EQ(live_.events.size(), 2u);
  EXPECT_TRUE(live_.armed);
}

TEST_P(DataPlaneRestoreTest, AcceptsAWellFormedStore) {
  const std::vector<std::uint8_t> bytes = live_.bytes();
  snap::Reader r{bytes};
  plane_.restore_state(r);
  r.finish();
  EXPECT_EQ(PlaneBytes::of(plane_).bytes(), bytes);
  sim_.run();
  ASSERT_EQ(recorder_.fates.size(), 2u);
  EXPECT_EQ(recorder_.fates[0].fate, PacketFate::kDelivered);
  EXPECT_EQ(recorder_.fates[1].when, sim::SimTime::millis(6));
}

TEST_P(DataPlaneRestoreTest, RejectsAnEventAtAnUnknownNode) {
  expect_rejected([](PlaneBytes& b) { b.events[0].node = 100'000; });
}

TEST_P(DataPlaneRestoreTest, RejectsAnEventForAPrefixWithoutADestination) {
  expect_rejected([](PlaneBytes& b) { b.events[0].prefix = 1; });  // a hole
  expect_rejected([](PlaneBytes& b) { b.events[1].prefix = 2; });  // beyond
}

TEST_P(DataPlaneRestoreTest, RejectsAnEventBeforeNow) {
  expect_rejected([](PlaneBytes& b) {
    b.events[0].at = sim::SimTime::millis(1).as_micros() - 1;
  });
}

TEST_P(DataPlaneRestoreTest, RejectsEventsOutOfOrder) {
  expect_rejected([](PlaneBytes& b) {
    std::swap(b.events[0], b.events[1]);
  });
  expect_rejected([](PlaneBytes& b) { b.events[1].seq = b.events[0].seq; });
}

TEST_P(DataPlaneRestoreTest, RejectsASeqNotYetDrawn) {
  expect_rejected([](PlaneBytes& b) { b.events[1].seq = b.next_seq; });
}

TEST_P(DataPlaneRestoreTest, RejectsATtlBelowOne) {
  expect_rejected([](PlaneBytes& b) { b.events[0].ttl = 0; });
  expect_rejected([](PlaneBytes& b) { b.events[1].ttl = -5; });
}

TEST_P(DataPlaneRestoreTest, RejectsAnInFlightCountOtherThanTheEventCount) {
  expect_rejected([](PlaneBytes& b) { ++b.in_flight; });
}

TEST_P(DataPlaneRestoreTest, RejectsEventsWithTheBridgeDisarmed) {
  expect_rejected([](PlaneBytes& b) { b.armed = false; });
}

TEST_P(DataPlaneRestoreTest, RejectsACountTheBytesCannotHold) {
  expect_rejected([](PlaneBytes& b) {
    b.count = std::uint64_t{1} << 40;
    b.in_flight = b.count;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DataPlaneRestoreTest,
    ::testing::Values(PlaneBackend::kHeap, PlaneBackend::kRings),
    [](const ::testing::TestParamInfo<PlaneBackend>& info) {
      return info.param == PlaneBackend::kHeap ? "heap" : "rings";
    });

INSTANTIATE_TEST_SUITE_P(
    Backends, DataPlaneTest,
    ::testing::Values(PlaneBackend::kHeap, PlaneBackend::kRings),
    [](const ::testing::TestParamInfo<PlaneBackend>& info) {
      return info.param == PlaneBackend::kHeap ? "heap" : "rings";
    });

}  // namespace
}  // namespace bgpsim::fwd
