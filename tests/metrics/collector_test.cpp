#include "metrics/collector.hpp"

#include <gtest/gtest.h>

#include "snap/codec.hpp"

namespace bgpsim::metrics {
namespace {

using sim::SimTime;

fwd::Packet dummy_packet() { return fwd::Packet{}; }

TEST(Collector, StartsEmpty) {
  Collector c;
  EXPECT_EQ(c.updates_sent_total(), 0u);
  EXPECT_EQ(c.packets_sent_total(), 0u);
  EXPECT_FALSE(c.last_update_at(SimTime::zero()).has_value());
  EXPECT_FALSE(c.first_exhaustion(SimTime::zero()).has_value());
}

TEST(Collector, LastUpdateRespectsWindow) {
  Collector c;
  c.note_update_sent(SimTime::seconds(1), false);
  c.note_update_sent(SimTime::seconds(5), true);
  EXPECT_EQ(c.last_update_at(SimTime::zero()), SimTime::seconds(5));
  EXPECT_EQ(c.last_update_at(SimTime::seconds(5)), SimTime::seconds(5));
  EXPECT_FALSE(c.last_update_at(SimTime::seconds(6)).has_value());
  EXPECT_EQ(c.withdrawals_sent_total(), 1u);
}

TEST(Collector, UpdatesSentSince) {
  Collector c;
  for (int t = 1; t <= 10; ++t) c.note_update_sent(SimTime::seconds(t), false);
  EXPECT_EQ(c.updates_sent_since(SimTime::seconds(6)), 5u);
  EXPECT_EQ(c.updates_sent_since(SimTime::zero()), 10u);
  EXPECT_EQ(c.updates_sent_since(SimTime::seconds(11)), 0u);
}

TEST(Collector, PacketsSentInClosedWindow) {
  Collector c;
  for (int t = 1; t <= 10; ++t) c.note_packet_sent(SimTime::seconds(t));
  EXPECT_EQ(c.packets_sent_in(SimTime::seconds(3), SimTime::seconds(7)), 5u);
  EXPECT_EQ(c.packets_sent_in(SimTime::seconds(0), SimTime::seconds(100)), 10u);
  EXPECT_EQ(c.packets_sent_in(SimTime::seconds(11), SimTime::seconds(20)), 0u);
}

TEST(Collector, FateCountersByKind) {
  Collector c;
  c.note_fate(dummy_packet(), fwd::PacketFate::kDelivered, 0, SimTime::seconds(1));
  c.note_fate(dummy_packet(), fwd::PacketFate::kDelivered, 0, SimTime::seconds(2));
  c.note_fate(dummy_packet(), fwd::PacketFate::kNoRoute, 3, SimTime::seconds(2));
  c.note_fate(dummy_packet(), fwd::PacketFate::kLinkDown, 4, SimTime::seconds(2));
  c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 5,
              SimTime::seconds(3));
  EXPECT_EQ(c.delivered_total(), 2u);
  EXPECT_EQ(c.no_route_total(), 1u);
  EXPECT_EQ(c.link_down_total(), 1u);
  EXPECT_EQ(c.exhaustions_since(SimTime::zero()), 1u);
}

TEST(Collector, ExhaustionWindowQueries) {
  Collector c;
  for (int t : {2, 4, 6, 8}) {
    c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 1,
                SimTime::seconds(t));
  }
  EXPECT_EQ(c.exhaustions_since(SimTime::seconds(5)), 2u);
  EXPECT_EQ(c.first_exhaustion(SimTime::seconds(3)), SimTime::seconds(4));
  EXPECT_EQ(c.last_exhaustion(SimTime::seconds(3)), SimTime::seconds(8));
  EXPECT_FALSE(c.first_exhaustion(SimTime::seconds(9)).has_value());
  EXPECT_FALSE(c.last_exhaustion(SimTime::seconds(9)).has_value());
}

TEST(Collector, UpdateActivityBuckets) {
  Collector c;
  for (int t : {1, 2, 2, 3, 9}) c.note_update_sent(SimTime::seconds(t), false);
  const auto bins =
      c.update_activity(SimTime::zero(), SimTime::seconds(10),
                        SimTime::seconds(2));
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_EQ(bins[0], 1u);  // [0,2): t=1
  EXPECT_EQ(bins[1], 3u);  // [2,4): t=2,2,3
  EXPECT_EQ(bins[2], 0u);
  EXPECT_EQ(bins[4], 1u);  // [8,10): t=9
}

TEST(Collector, ActivityWindowClipsAndRoundsUp) {
  Collector c;
  c.note_update_sent(SimTime::seconds(1), false);
  c.note_update_sent(SimTime::seconds(50), false);
  // Window [0, 5) with width 2 -> 3 bins (last one partial).
  const auto bins = c.update_activity(SimTime::zero(), SimTime::seconds(5),
                                      SimTime::seconds(2));
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0], 1u);
  EXPECT_EQ(bins[2], 0u);  // the t=50 event is outside the window
}

TEST(Collector, ActivityDegenerateWindows) {
  Collector c;
  c.note_update_sent(SimTime::seconds(1), false);
  EXPECT_TRUE(c.update_activity(SimTime::seconds(5), SimTime::seconds(5),
                                SimTime::seconds(1))
                  .empty());
  EXPECT_TRUE(c.update_activity(SimTime::zero(), SimTime::seconds(5),
                                SimTime::zero())
                  .empty());
}

TEST(Collector, ExhaustionActivity) {
  Collector c;
  c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 1,
              SimTime::seconds(3));
  const auto bins = c.exhaustion_activity(SimTime::zero(),
                                          SimTime::seconds(10),
                                          SimTime::seconds(5));
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0], 1u);
  EXPECT_EQ(bins[1], 0u);
}

TEST(Collector, LoopingWindowMatchesPaperDefinition) {
  // Overall looping duration: first to last TTL exhaustion after the event.
  Collector c;
  // Pre-event exhaustion must not count.
  c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 1,
              SimTime::seconds(1));
  c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 1,
              SimTime::seconds(10));
  c.note_fate(dummy_packet(), fwd::PacketFate::kTtlExhausted, 1,
              SimTime::seconds(42));
  const auto event = SimTime::seconds(5);
  const auto first = c.first_exhaustion(event);
  const auto last = c.last_exhaustion(event);
  ASSERT_TRUE(first && last);
  EXPECT_DOUBLE_EQ((*last - *first).as_seconds(), 32.0);
}

TEST(Collector, RestoreRejectsASeriesLongerThanItsBytes) {
  Collector c;
  c.note_packet_sent(sim::SimTime::seconds(1));
  snap::Writer w;
  c.save_state(w);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  bytes[0] = 0;
  bytes[5] = 1;  // the update series claims 2^40 times
  snap::Reader r{bytes};
  Collector restored;
  EXPECT_THROW(restored.restore_state(r), snap::FormatError);
}

TEST(Collector, RestoreRejectsMoreLanesThanItsBytes) {
  Collector c;
  c.enable_prefix_lanes(2);
  snap::Writer w;
  c.save_state(w);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  // The lane count follows three empty series and four counters.
  const std::size_t at = 3 * 8 + 4 * 8;
  bytes.at(at) = 0;
  bytes.at(at + 5) = 1;  // 2^40 lanes
  snap::Reader r{bytes};
  Collector restored;
  restored.enable_prefix_lanes(2);
  EXPECT_THROW(restored.restore_state(r), snap::FormatError);
}

}  // namespace
}  // namespace bgpsim::metrics
