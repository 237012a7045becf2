#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bgpsim::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_at(SimTime::millis(10), [&] { seen.push_back(sim.now()); });
  sim.schedule_at(SimTime::millis(25), [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], SimTime::millis(10));
  EXPECT_EQ(seen[1], SimTime::millis(25));
  EXPECT_EQ(sim.now(), SimTime::millis(25));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired;
  sim.schedule_at(SimTime::millis(10), [&] {
    sim.schedule_after(SimTime::millis(5), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime::millis(15));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(10), [&] { ++count; });
  sim.schedule_at(SimTime::millis(20), [&] { ++count; });
  sim.schedule_at(SimTime::millis(30), [&] { ++count; });

  const auto fired = sim.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 2u);  // events at exactly the limit fire
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ClockStaysAtLastEventWhenQueueDrains) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(7), [] {});
  sim.run_until(SimTime::seconds(100));
  EXPECT_EQ(sim.now(), SimTime::millis(7));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::millis(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(SimTime::millis(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, SchedulingAtNowIsAllowed) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(SimTime::millis(10), [&] {
    sim.schedule_at(sim.now(), [&] { ran = true; });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] { ++count; });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(SimTime::millis(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(SimTime::millis(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulator, CascadingEventsAllFire) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(SimTime::micros(1), chain);
  };
  sim.schedule_at(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::micros(99));
}

TEST(Simulator, ClearPendingStopsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] {
    ++count;
    sim.clear_pending();
  });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilReturnsFiredCount) {
  Simulator sim;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::millis(i), [] {});
  }
  EXPECT_EQ(sim.run_until(SimTime::millis(4)), 4u);
  EXPECT_EQ(sim.run_until(SimTime::millis(100)), 6u);
}

TEST(Simulator, CreditExternalAccountsBulkFirings) {
  // The slot's owner replays three firings inline (the last at 5 us,
  // re-armed at 7 us): the ledger must read as if the run loop had fired
  // them one by one — fired count, clock, one seq per re-arm.
  Simulator sim;
  std::vector<std::pair<std::int64_t, std::string>> order;
  int calls = 0;
  sim.set_external_handler([&] {
    order.emplace_back(sim.now().as_micros(), "slot");
    if (++calls == 1) {
      EXPECT_EQ(sim.external_horizon(), SimTime::micros(10));
      // Bulk firings may not reach the queued event's time.
      EXPECT_THROW(sim.credit_external(1, SimTime::micros(10),
                                       SimTime::micros(10)),
                   std::invalid_argument);
      sim.credit_external(3, SimTime::micros(5), SimTime::micros(7));
      EXPECT_EQ(sim.now(), SimTime::micros(5));
    }
  });
  sim.schedule_at(SimTime::micros(10),
                  [&] { order.emplace_back(sim.now().as_micros(), "event"); });
  sim.arm_external(SimTime::micros(1));
  const std::uint64_t seq_before = sim.event_seq();
  EXPECT_EQ(sim.run(), 6u);  // 1 + 3 credited + the re-armed slot + event
  EXPECT_EQ(sim.events_fired(), 6u);
  // Three re-arms drawn by the credited firings; the slot's second real
  // firing does not re-arm.
  EXPECT_EQ(sim.event_seq(), seq_before + 3);
  const std::vector<std::pair<std::int64_t, std::string>> expected = {
      {1, "slot"}, {7, "slot"}, {10, "event"}};
  EXPECT_EQ(order, expected);
}

TEST(Simulator, ExternalHorizonFollowsTheRunLimitAndStep) {
  Simulator sim;
  std::vector<SimTime> horizons;
  sim.set_external_handler([&] { horizons.push_back(sim.external_horizon()); });
  sim.arm_external(SimTime::micros(3));
  sim.run_until(SimTime::micros(8));  // empty queue: just past the limit
  sim.arm_external(SimTime::micros(9));
  EXPECT_TRUE(sim.step());  // step(): nothing may be replayed inline
  ASSERT_EQ(horizons.size(), 2u);
  EXPECT_EQ(horizons[0], SimTime::micros(9));
  EXPECT_EQ(horizons[1], SimTime::micros(3));
}

}  // namespace
}  // namespace bgpsim::sim
