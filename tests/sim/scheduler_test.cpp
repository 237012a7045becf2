#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
  // The slot's owner replays three firings inline (the last at 5 us) and
  // re-arms for 7 us: the ledger must read as if the run loop had fired
  // them one by one — fired count and clock; the seqs are the owner's
  // own draws.
  Simulator sim;
  std::vector<std::pair<std::int64_t, std::string>> order;
  int calls = 0;
  sim.set_external_handler([&] {
    order.emplace_back(sim.now().as_micros(), "slot");
    if (++calls != 1) return;
    EXPECT_EQ(sim.external_horizon(), SimTime::micros(10));
    // Bulk firings may not reach the queued event's time.
    EXPECT_THROW(sim.credit_external(1, SimTime::micros(10)),
                 std::invalid_argument);
    sim.take_seq();
    sim.take_seq();
    sim.credit_external(3, SimTime::micros(5));
    EXPECT_EQ(sim.now(), SimTime::micros(5));
    sim.arm_external(SimTime::micros(7), sim.take_seq());
  });
  sim.schedule_at(SimTime::micros(10),
                  [&] { order.emplace_back(sim.now().as_micros(), "event"); });
  sim.arm_external(SimTime::micros(1));
  const std::uint64_t seq_before = sim.event_seq();
  EXPECT_EQ(sim.run(), 6u);  // 1 + 3 credited + the re-armed slot + event
  EXPECT_EQ(sim.events_fired(), 6u);
  EXPECT_EQ(sim.event_seq(), seq_before + 3);  // the owner's three draws
  const std::vector<std::pair<std::int64_t, std::string>> expected = {
      {1, "slot"}, {7, "slot"}, {10, "event"}};
  EXPECT_EQ(order, expected);
}

TEST(Simulator, TakeSeqsIsARunOfTakeSeq) {
  // A bulk replay draws all its seqs in one call: the counter, the last
  // seq returned and the order of later events must match n single draws.
  Simulator single;
  Simulator bulk;
  std::uint64_t last = 0;
  for (int i = 0; i < 5; ++i) last = single.take_seq();
  EXPECT_EQ(bulk.take_seqs(5), last);
  EXPECT_EQ(bulk.event_seq(), single.event_seq());
  EXPECT_EQ(bulk.take_seqs(1), single.take_seq());
  // The slot armed with the last drawn seq still precedes an event pushed
  // afterwards at the same time, and follows one pushed before the run.
  std::vector<std::string> order;
  bulk.set_external_handler([&] { order.emplace_back("slot"); });
  bulk.schedule_at(SimTime::micros(4), [&] { order.emplace_back("before"); });
  bulk.arm_external(SimTime::micros(4), bulk.take_seqs(3));
  bulk.schedule_at(SimTime::micros(4), [&] { order.emplace_back("after"); });
  bulk.run();
  const std::vector<std::string> expected = {"before", "slot", "after"};
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

TEST(Simulator, FireExternalInlineCreditsEachItem) {
  // The slot's owner fires its items at 3 and 5 us inline; the item at
  // 10 us drew its seq after the queued event at 10 us, so it may not
  // fire inline and goes back through the run loop behind that event.
  // The ledger must read as if every item had been a queued event.
  Simulator sim;
  std::vector<std::pair<std::int64_t, std::string>> order;
  std::uint64_t late_seq = 0;
  int calls = 0;
  sim.set_external_handler([&] {
    order.emplace_back(sim.now().as_micros(), "slot");
    if (++calls != 1) return;
    const std::uint64_t s3 = sim.take_seq();
    const std::uint64_t s5 = sim.take_seq();
    late_seq = sim.take_seq();
    ASSERT_TRUE(sim.fire_external_inline(SimTime::micros(3), s3));
    order.emplace_back(sim.now().as_micros(), "inline");
    ASSERT_TRUE(sim.fire_external_inline(SimTime::micros(5), s5));
    order.emplace_back(sim.now().as_micros(), "inline");
    EXPECT_FALSE(sim.fire_external_inline(SimTime::micros(10), late_seq));
    EXPECT_EQ(sim.now(), SimTime::micros(5));
    sim.arm_external(SimTime::micros(10), late_seq);
  });
  sim.schedule_at(SimTime::micros(10),
                  [&] { order.emplace_back(sim.now().as_micros(), "event"); });
  sim.arm_external(SimTime::micros(1));
  const std::uint64_t seq_before = sim.event_seq();
  EXPECT_EQ(sim.run(), 5u);  // slot + 2 inline + event + the re-armed slot
  EXPECT_EQ(sim.events_fired(), 5u);
  EXPECT_EQ(sim.event_seq(), seq_before + 3);  // only the owner's draws
  const std::vector<std::pair<std::int64_t, std::string>> expected = {
      {1, "slot"}, {3, "inline"}, {5, "inline"}, {10, "event"}, {10, "slot"}};
  EXPECT_EQ(order, expected);
}

TEST(Simulator, FireExternalInlineOrdersBySeqAtTheQueueFront) {
  // At the queued event's own time, items drawn before it fire inline and
  // items drawn after it do not.
  Simulator sim;
  std::vector<bool> admitted;
  const std::uint64_t first = sim.take_seq();
  const std::uint64_t second = sim.take_seq();
  sim.schedule_at(SimTime::micros(4), [] {});
  const std::uint64_t third = sim.take_seq();
  sim.set_external_handler([&] {
    admitted.push_back(sim.fire_external_inline(SimTime::micros(4), second));
    admitted.push_back(sim.fire_external_inline(SimTime::micros(4), third));
  });
  sim.arm_external(SimTime::micros(4), first);
  EXPECT_TRUE(sim.step());  // the slot, alone: step() admits nothing
  sim.arm_external(SimTime::micros(4), first);
  sim.run_until(SimTime::micros(3));  // before the slot: nothing fires
  sim.run_until(SimTime::micros(4));  // the slot, then the queued event
  const std::vector<bool> expected = {false, false, true, false};
  EXPECT_EQ(admitted, expected);
  EXPECT_EQ(sim.events_fired(), 4u);  // two slot firings, one inline, event

  // Without queued events the run limit bounds: items at the limit fire.
  Simulator limited;
  std::vector<bool> seen;
  limited.set_external_handler([&] {
    seen.push_back(limited.fire_external_inline(SimTime::micros(8), 0));
    seen.push_back(limited.fire_external_inline(SimTime::micros(9), 0));
  });
  limited.arm_external(SimTime::micros(3));
  limited.run_until(SimTime::micros(8));
  const std::vector<bool> limit_expected = {true, false};
  EXPECT_EQ(seen, limit_expected);
  EXPECT_EQ(limited.events_fired(), 2u);
  EXPECT_EQ(limited.now(), SimTime::micros(8));
}

TEST(Simulator, ExternalHandlerMayNotSchedule) {
  // An event pushed mid-drain could precede items already fired inline,
  // so the simulator refuses it instead of reordering silently.
  Simulator sim;
  sim.set_external_handler([&] { sim.schedule_after(SimTime::micros(1), [] {}); });
  sim.arm_external(SimTime::micros(2));
  EXPECT_THROW(sim.run(), std::logic_error);
  // Outside the handler scheduling works again.
  EXPECT_NO_THROW(sim.schedule_at(SimTime::micros(5), [] {}));
}

TEST(Simulator, ArmExternalTakesOnlyDrawnSeqs) {
  Simulator sim;
  std::vector<std::string> order;
  sim.set_external_handler([&] { order.push_back("slot"); });
  const std::uint64_t drawn = sim.take_seq();
  sim.schedule_at(SimTime::micros(1), [&] { order.push_back("event"); });
  EXPECT_THROW(sim.arm_external(SimTime::micros(1), sim.event_seq()),
               std::invalid_argument);
  sim.arm_external(SimTime::micros(1), drawn);  // drawn first: fires first
  sim.run();
  const std::vector<std::string> expected = {"slot", "event"};
  EXPECT_EQ(order, expected);
}

// ---- Silent deadlines (the MRAI ledger) ----------------------------------

/// Record a silent deadline `delay` from now; returns its seq.
std::uint64_t add_silent(Simulator& sim, SimTime delay) {
  const std::uint64_t seq = sim.take_seq();
  sim.add_deadline(sim.now() + delay, seq);
  return seq;
}

TEST(SimulatorDeadlines, StepFiresASilentDeadlineWhenGloballyNext) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(SimTime::millis(5), [&] { order.push_back("a"); });
  add_silent(sim, SimTime::millis(3));
  add_silent(sim, SimTime::millis(5));  // same µs as "a", newer seq
  sim.schedule_at(SimTime::millis(5), [&] { order.push_back("b"); });

  ASSERT_TRUE(sim.step());  // the 3 ms deadline
  EXPECT_EQ(sim.now(), SimTime::millis(3));
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending(), 3u);
  ASSERT_TRUE(sim.step());  // "a"
  EXPECT_EQ(order, std::vector<std::string>{"a"});
  ASSERT_TRUE(sim.step());  // the 5 ms deadline, between "a" and "b"
  EXPECT_EQ(order, std::vector<std::string>{"a"});
  EXPECT_EQ(sim.events_fired(), 3u);
  ASSERT_TRUE(sim.step());  // "b"
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_EQ(sim.deadlines_passed(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorDeadlines, RunUntilCreditsDeadlinesUpToTheLimit) {
  for (const std::int64_t limit_ms : {9, 10, 11}) {
    SCOPED_TRACE("limit " + std::to_string(limit_ms) + " ms");
    Simulator sim;
    sim.schedule_at(SimTime::millis(4), [] {});
    add_silent(sim, SimTime::millis(10));
    const std::uint64_t fired = sim.run_until(SimTime::millis(limit_ms));
    const bool passed = limit_ms >= 10;
    EXPECT_EQ(fired, passed ? 2u : 1u);
    EXPECT_EQ(sim.events_fired(), fired);
    EXPECT_EQ(sim.pending(), passed ? 0u : 1u);
    // The clock moves to a passed deadline as it would to an event.
    EXPECT_EQ(sim.now(), SimTime::millis(passed ? 10 : 4));
    EXPECT_EQ(sim.deadlines_passed(), passed ? 1u : 0u);
  }
}

TEST(SimulatorDeadlines, ClockEndsAtATrailingSilentDeadline) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(2), [&] {
    add_silent(sim, SimTime::seconds(30));  // outlives every event
    add_silent(sim, SimTime::seconds(25));
  });
  sim.schedule_at(SimTime::millis(8), [] {});
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(sim.now(), SimTime::millis(2) + SimTime::seconds(30));
  // A later schedule at the new clock is not in the past.
  EXPECT_NO_THROW(sim.schedule_at(sim.now(), [] {}));
}

TEST(SimulatorDeadlines, PendingCountsOutstandingDeadlines) {
  Simulator sim;
  const std::uint64_t s1 = add_silent(sim, SimTime::millis(7));
  sim.schedule_at(SimTime::millis(3), [] {});  // seq 2
  const std::uint64_t s3 = add_silent(sim, SimTime::millis(3));
  const std::uint64_t s4 = add_silent(sim, SimTime::millis(9));
  using Entries = std::vector<std::pair<std::int64_t, std::uint64_t>>;
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.pending_entries(),
            (Entries{{3000, 2}, {3000, s3}, {7000, s1}, {9000, s4}}));
  EXPECT_TRUE(sim.withdraw_deadline(SimTime::millis(9), s4));
  EXPECT_FALSE(sim.withdraw_deadline(SimTime::millis(9), s4));
  EXPECT_EQ(sim.pending(), 3u);
  sim.schedule_at(SimTime::millis(5), [&] {
    // Inside an event: the 3 ms items have passed, the 7 ms one has not.
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.pending_entries(), (Entries{{7000, s1}}));
    EXPECT_EQ(sim.events_fired(), 3u);  // this event counts as fired
    EXPECT_FALSE(sim.withdraw_deadline(SimTime::millis(3), s3));
  });
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.pending_entries().empty());
  EXPECT_EQ(sim.events_fired(), 4u);
}

TEST(SimulatorDeadlines, ClearPendingInsideAnEventKeepsPassedDeadlines) {
  for (const bool deadline_first : {true, false}) {
    SCOPED_TRACE(deadline_first ? "deadline first" : "event first");
    Simulator sim;
    const SimTime t = SimTime::millis(6);
    if (deadline_first) add_silent(sim, t);
    sim.schedule_at(t, [&] { sim.clear_pending(); });
    if (!deadline_first) add_silent(sim, t);
    add_silent(sim, SimTime::millis(2));
    add_silent(sim, SimTime::millis(9));  // dropped in every order
    sim.run();
    // The clearing event, the 2 ms deadline, and the 6 ms deadline iff
    // its seq came first; the rest never fire.
    EXPECT_EQ(sim.events_fired(), deadline_first ? 3u : 2u);
    EXPECT_EQ(sim.deadlines_passed(), deadline_first ? 2u : 1u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), t);
  }
}

TEST(SimulatorDeadlines, PromotionFiresAtTheOriginalSeqAheadOfAMemoizedFront) {
  Simulator sim;
  std::vector<std::string> order;
  const SimTime t = SimTime::millis(4);
  add_silent(sim, SimTime::millis(1));
  const std::uint64_t seq = add_silent(sim, t);
  sim.schedule_at(t, [&] { order.push_back("queued"); });
  // Stepping over the 1 ms deadline observes (and memoizes) the queue
  // front: "queued", at the promoted deadline's µs with a newer seq.
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), SimTime::millis(1));
  sim.promote_deadline(t, seq, [&] { order.push_back("promoted"); });
  EXPECT_THROW(sim.promote_deadline(t, seq, [] {}), std::logic_error);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<std::string>{"promoted", "queued"}));
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_EQ(sim.deadlines_passed(), 1u);
}

TEST(SimulatorDeadlines, LedgerCompactsToUnexpiredDeadlines) {
  Simulator sim;
  std::uint64_t expected = 0;
  // Many short deadlines added from events spread over time: compaction
  // must credit the expired ones exactly, however often it runs.
  for (int i = 0; i < 5000; ++i) {
    sim.schedule_at(SimTime::millis(i), [&] {
      add_silent(sim, SimTime::millis(3));
      add_silent(sim, SimTime::millis(1));
    });
    expected += 3;
  }
  EXPECT_EQ(sim.run(), expected);
  EXPECT_EQ(sim.events_fired(), expected);
  EXPECT_EQ(sim.deadlines_passed(), 10000u);
  EXPECT_EQ(sim.now(), SimTime::millis(4999 + 3));
}

TEST(SimulatorDeadlines, AddDeadlineRejectsUndrawnAndOutOfOrderSeqs) {
  Simulator sim;
  const std::uint64_t a = sim.take_seq();
  const std::uint64_t b = sim.take_seq();
  EXPECT_THROW(sim.add_deadline(SimTime::millis(1), sim.event_seq()),
               std::invalid_argument);
  sim.add_deadline(SimTime::millis(1), b);
  EXPECT_THROW(sim.add_deadline(SimTime::millis(1), a), std::invalid_argument);
  sim.schedule_at(SimTime::millis(2), [] {});
  sim.run();
  EXPECT_THROW(sim.add_deadline(SimTime::millis(1), sim.take_seq()),
               std::invalid_argument);
}

}  // namespace
}  // namespace bgpsim::sim
