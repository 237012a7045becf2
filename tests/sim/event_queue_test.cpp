#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace bgpsim::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  q.push(SimTime::millis(20), [&] { order.push_back(2); });

  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireFifo) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::millis(5);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(SimTime::millis(20), [] {});
  q.push(SimTime::millis(10), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(10));
}

TEST(EventQueue, PopReturnsFiringTime) {
  EventQueue q;
  q.push(SimTime::millis(42), [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.time, SimTime::millis(42));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(SimTime::millis(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  const EventId mid = q.push(SimTime::millis(20), [&] { order.push_back(2); });
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelHeadAdvancesNextTime) {
  EventQueue q;
  const EventId head = q.push(SimTime::millis(10), [] {});
  q.push(SimTime::millis(20), [] {});
  q.cancel(head);
  EXPECT_EQ(q.next_time(), SimTime::millis(20));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(SimTime::micros(1000 - i), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 500u);

  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, prev);
    prev = fired.time;
  }
}

}  // namespace
}  // namespace bgpsim::sim
