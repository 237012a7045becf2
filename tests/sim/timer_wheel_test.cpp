// Differential property suite: the timer-wheel backend must be
// observationally identical to the binary-heap backend — same pop order,
// same EventIds, same cancel semantics, same pending set — for arbitrary
// interleavings of push/cancel/pop and pushes at pre-drawn seqs, including
// same-timestamp bursts, cancel-after-fire, and far-future times that
// exercise every cascade level and the overflow horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace bgpsim::sim {
namespace {

// Wheel geometry mirrored from timer_wheel.cpp: 1.024 ms ticks, 6 levels
// of 64 slots. Level l spans 64^(l+1) ticks; the horizon is 2^36 ticks.
constexpr std::int64_t kTickUs = 1 << 10;
constexpr std::int64_t kLevelSpanUs[] = {
    kTickUs * (1LL << 6),  kTickUs * (1LL << 12), kTickUs * (1LL << 18),
    kTickUs * (1LL << 24), kTickUs * (1LL << 30), kTickUs * (1LL << 36),
};
constexpr std::int64_t kHorizonUs = kLevelSpanUs[5];

/// The two backends driven through identical operation histories. Every
/// operation is applied to both queues and its observable results —
/// returned ids, cancel verdicts, front observations — asserted equal.
struct QueuePair {
  EventQueue heap{QueueBackend::kHeap};
  EventQueue wheel{QueueBackend::kWheel};

  EventId push(SimTime when) {
    const EventId predicted_h = heap.next_push_id();
    const EventId predicted_w = wheel.next_push_id();
    EXPECT_EQ(predicted_h.value, predicted_w.value);
    const EventId h = heap.push(when, [] {});
    const EventId w = wheel.push(when, [] {});
    EXPECT_EQ(h.value, w.value);
    EXPECT_EQ(predicted_h.value, h.value);
    return h;
  }

  bool cancel(EventId id) {
    const bool h = heap.cancel(id);
    const bool w = wheel.cancel(id);
    EXPECT_EQ(h, w);
    return h;
  }

  /// Pop one event from both; returns its (time, id) after asserting the
  /// two backends agree on every front observation.
  std::pair<SimTime, EventId> pop() {
    EXPECT_EQ(heap.next_time(), wheel.next_time());
    EXPECT_EQ(heap.next_event_seq(), wheel.next_event_seq());
    EXPECT_EQ(heap.next_event_id().value, wheel.next_event_id().value);
    EventQueue::Fired h = heap.pop();
    EventQueue::Fired w = wheel.pop();
    EXPECT_EQ(h.time, w.time);
    EXPECT_EQ(h.id.value, w.id.value);
    return {h.time, h.id};
  }

  /// Draw a seq on both queues for a later push_drawn.
  std::uint64_t take_seq() {
    const std::uint64_t h = heap.take_seq();
    EXPECT_EQ(h, wheel.take_seq());
    return h;
  }

  EventId push_drawn(SimTime when, std::uint64_t seq) {
    const EventId h = heap.push_drawn(when, seq, [] {});
    const EventId w = wheel.push_drawn(when, seq, [] {});
    EXPECT_EQ(h.value, w.value);
    return h;
  }

  void expect_same_state() const {
    EXPECT_EQ(heap.size(), wheel.size());
    EXPECT_EQ(heap.empty(), wheel.empty());
    EXPECT_EQ(heap.next_seq(), wheel.next_seq());
    EXPECT_EQ(heap.pending_entries(), wheel.pending_entries());
  }
};

/// Times that stress the wheel: same-tick ties, tick boundaries, every
/// cascade level, the overflow horizon, and infinity.
SimTime interesting_time(Rng& rng, std::int64_t base_us) {
  switch (rng.next_below(10)) {
    case 0:
      return SimTime::micros(base_us);  // exact tie with a prior draw
    case 1:
      return SimTime::micros(base_us + rng.uniform_int(0, kTickUs - 1));
    case 2:  // straddle a tick boundary
      return SimTime::micros((base_us / kTickUs + 1) * kTickUs -
                             rng.uniform_int(0, 2));
    case 3:
      return SimTime::micros(base_us + kLevelSpanUs[0] + rng.uniform_int(0, 99));
    case 4:
      return SimTime::micros(base_us + kLevelSpanUs[1] + rng.uniform_int(0, 99));
    case 5:
      return SimTime::micros(base_us + kLevelSpanUs[2] + rng.uniform_int(0, 99));
    case 6:
      return SimTime::micros(base_us + kLevelSpanUs[4] + rng.uniform_int(0, 99));
    case 7:  // beyond the horizon: overflow, then retargeted
      return SimTime::micros(base_us + kHorizonUs + rng.uniform_int(0, 999));
    case 8:
      return SimTime::infinity();
    default:
      return SimTime::micros(base_us + rng.uniform_int(0, 1'000'000));
  }
}

TEST(TimerWheelDifferential, RandomArmCancelPopHistories) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    Rng rng = Rng{41}.child("wheel-diff", round);
    QueuePair q;
    std::vector<EventId> ids;  // live and dead — cancels may target both
    std::vector<std::pair<SimTime, std::uint64_t>> drawn;  // seqs not pushed
    std::int64_t base_us = 0;

    for (int step = 0; step < 400; ++step) {
      switch (rng.next_below(6)) {
        case 0:
        case 1:
        case 2: {
          const SimTime when = interesting_time(rng, base_us);
          ids.push_back(q.push(when));
          break;
        }
        case 3: {
          if (ids.empty()) break;
          const std::size_t pick =
              static_cast<std::size_t>(rng.next_below(ids.size()));
          q.cancel(ids[pick]);  // may be long dead: both must agree
          break;
        }
        case 4: {
          if (q.heap.empty()) break;
          const SimTime time = q.pop().first;
          if (!time.is_infinite()) base_us = time.as_micros();
          break;
        }
        default: {
          // A promoted deadline: pushed now at a seq drawn earlier, so it
          // may land in front of the memoized front at the same time.
          if (drawn.empty() || rng.chance(0.5)) {
            drawn.emplace_back(interesting_time(rng, base_us), q.take_seq());
            break;
          }
          const std::size_t pick =
              static_cast<std::size_t>(rng.next_below(drawn.size()));
          if (!q.heap.empty()) (void)q.heap.next_time();  // memoize fronts
          if (!q.wheel.empty()) (void)q.wheel.next_time();
          // Never behind the clock: the simulator only promotes deadlines
          // that have not passed.
          SimTime when = std::max(drawn[pick].first, SimTime::micros(base_us));
          if (!q.heap.empty() && rng.chance(0.5)) when = q.heap.next_time();
          ids.push_back(q.push_drawn(when, drawn[pick].second));
          drawn.erase(drawn.begin() + static_cast<std::ptrdiff_t>(pick));
          break;
        }
      }
      if (step % 16 == 0) q.expect_same_state();
    }

    // Drain: the full residual order must match exactly.
    SimTime prev = SimTime::zero();
    while (!q.heap.empty()) {
      const SimTime time = q.pop().first;
      EXPECT_LE(prev, time);
      prev = time;
    }
    q.expect_same_state();
  }
}

TEST(TimerWheelDifferential, SameTimestampBurstsPopFifoAcrossBackends) {
  QueuePair q;
  const SimTime t = SimTime::millis(7);
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(q.push(t));
  // Cancel a scattering mid-burst; survivors must still pop FIFO.
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  std::uint64_t prev_seq = 0;
  while (!q.heap.empty()) {
    EXPECT_EQ(q.heap.next_time(), t);
    const std::uint64_t seq = q.heap.next_event_seq();
    EXPECT_LT(prev_seq, seq);
    prev_seq = seq;
    q.pop();
  }
}

TEST(TimerWheelDifferential, CancelAfterFireFailsOnBothBackends) {
  QueuePair q;
  const EventId id = q.push(SimTime::millis(1));
  q.push(SimTime::millis(2));
  q.pop();  // fires `id`
  EXPECT_FALSE(q.cancel(id));
  // The slot is recycled by the next push; the old handle must still fail.
  const EventId recycled = q.push(SimTime::millis(3));
  EXPECT_NE(recycled.value, id.value);
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.cancel(recycled));
}

TEST(TimerWheelDifferential, FarFutureCascadeEdges) {
  QueuePair q;
  // One event per cascade level, plus overflow and infinity, pushed in
  // reverse time order so every pop crosses a level boundary.
  std::vector<std::int64_t> times;
  for (int l = 5; l >= 0; --l) times.push_back(kLevelSpanUs[l] + 1);
  times.push_back(kHorizonUs * 3 + 17);  // deep overflow
  for (const std::int64_t t : times) q.push(SimTime::micros(t));
  q.push(SimTime::infinity());

  SimTime prev = SimTime::zero();
  std::size_t popped = 0;
  while (!q.heap.empty()) {
    const SimTime time = q.pop().first;
    EXPECT_LT(prev, time);
    prev = time;
    ++popped;
  }
  EXPECT_EQ(popped, times.size() + 1);
  EXPECT_TRUE(prev.is_infinite());
}

TEST(TimerWheelDifferential, ClearKeepsGenerationsOnBothBackends) {
  QueuePair q;
  const EventId id = q.push(SimTime::millis(1));
  q.push(SimTime::millis(2));
  q.heap.clear();
  q.wheel.clear();
  q.expect_same_state();
  EXPECT_TRUE(q.heap.empty());
  EXPECT_FALSE(q.cancel(id));  // stale handle must not alias new events
  const EventId next = q.push(SimTime::millis(3));
  EXPECT_NE(next.value, id.value);
  const auto [time, popped] = q.pop();
  EXPECT_EQ(time, SimTime::millis(3));
  EXPECT_EQ(popped.value, next.value);
}

TEST(TimerWheelDifferential, EmptyQueueThrowsOnBothBackends) {
  for (const QueueBackend backend : {QueueBackend::kHeap, QueueBackend::kWheel}) {
    EventQueue q{backend};
    EXPECT_THROW((void)q.next_time(), std::logic_error);
    EXPECT_THROW(q.pop(), std::logic_error);
    EXPECT_TRUE(q.pending_entries().empty());
  }
}

// ---- Simulator-level differential ---------------------------------------

/// Run the same self-extending schedule on both backends: event k records
/// its firing time, schedules up to two children at pseudo-random offsets
/// (same-instant children included), and sometimes cancels a remembered
/// event. The recorded (time, marker) streams must match exactly.
TEST(TimerWheelDifferential, SimulatorExecutionsMatchEventForEvent) {
  const auto run = [](QueueBackend backend) {
    Simulator simulator{backend};
    std::vector<std::pair<std::int64_t, int>> fired;
    std::vector<EventId> cancellable;
    int next_marker = 0;

    std::function<void(int)> spawn = [&](int depth) {
      if (next_marker >= 600) return;
      const int marker = next_marker++;
      Rng rng = Rng{977}.child("sim-diff", static_cast<std::uint64_t>(marker));
      constexpr std::int64_t kOffsets[] = {
          0, 1, kTickUs - 1, kTickUs, kLevelSpanUs[0] + 3, 250'000};
      const SimTime delay =
          SimTime::micros(kOffsets[rng.next_below(std::size(kOffsets))]);
      const EventId id =
          simulator.schedule_after(delay, [&, depth, marker, rng] {
            fired.emplace_back(simulator.now().as_micros(), marker);
            Rng r = rng;  // per-event deterministic decisions
            if (depth < 40) {
              spawn(depth + 1);
              if (r.chance(0.5)) spawn(depth + 1);
            }
            if (r.chance(0.3) && !cancellable.empty()) {
              simulator.cancel(cancellable.back());
              cancellable.pop_back();
            }
          });
      if (marker % 5 == 0) cancellable.push_back(id);
    };
    for (int i = 0; i < 4; ++i) spawn(0);
    simulator.run();
    return std::pair{fired, simulator.events_fired()};
  };

  const auto heap = run(QueueBackend::kHeap);
  const auto wheel = run(QueueBackend::kWheel);
  EXPECT_EQ(heap.second, wheel.second);
  ASSERT_EQ(heap.first.size(), wheel.first.size());
  EXPECT_EQ(heap.first, wheel.first);
  EXPECT_GT(heap.first.size(), 100u);
}

}  // namespace
}  // namespace bgpsim::sim
