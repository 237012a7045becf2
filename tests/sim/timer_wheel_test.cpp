// Differential property suite: the wheel-backed EventQueue must be
// observationally identical to a plain ordered (time, seq) model — same
// pop order, same seqs, same cancel verdicts, same pending set, and
// never-reused EventIds — for arbitrary interleavings of push/cancel/pop
// and pushes at pre-drawn seqs, including same-timestamp bursts,
// cancel-after-fire, and far-future times that exercise every cascade
// level and the overflow horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
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

/// The queue under test driven in lockstep with its reference model: the
/// pending set as a std::map keyed by (time µs, seq) — exactly the order
/// the queue must pop in — plus the seq counter and every handle ever
/// issued. Every operation's observable results are asserted against the
/// model.
struct ModelledQueue {
  using Key = std::pair<std::int64_t, std::uint64_t>;

  EventQueue queue;
  std::map<Key, std::uint64_t> pending;      // (time, seq) -> EventId
  std::map<std::uint64_t, Key> live;         // EventId -> (time, seq)
  std::set<std::uint64_t> issued;            // every EventId ever returned
  std::uint64_t next_seq = 1;

  EventId push(SimTime when) {
    const EventId predicted = queue.next_push_id();
    const EventId id = queue.push(when, [] {});
    EXPECT_EQ(predicted.value, id.value);
    admit(when, next_seq++, id);
    return id;
  }

  bool cancel(EventId id) {
    const bool cancelled = queue.cancel(id);
    const auto it = live.find(id.value);
    EXPECT_EQ(cancelled, it != live.end());
    if (it != live.end()) {
      pending.erase(it->second);
      live.erase(it);
    }
    return cancelled;
  }

  /// Pop one event; returns its (time, id) after asserting every front
  /// observation against the model's minimum.
  std::pair<SimTime, EventId> pop() {
    EXPECT_FALSE(pending.empty());
    const auto [key, id] = *pending.begin();
    EXPECT_EQ(queue.next_time().as_micros(), key.first);
    EXPECT_EQ(queue.next_event_seq(), key.second);
    EXPECT_EQ(queue.next_event_id().value, id);
    EventQueue::Fired fired = queue.pop();
    EXPECT_EQ(fired.time.as_micros(), key.first);
    EXPECT_EQ(fired.id.value, id);
    pending.erase(pending.begin());
    live.erase(id);
    return {fired.time, fired.id};
  }

  /// Draw a seq for a later push_drawn.
  std::uint64_t take_seq() {
    const std::uint64_t seq = queue.take_seq();
    EXPECT_EQ(seq, next_seq);
    return next_seq++;
  }

  EventId push_drawn(SimTime when, std::uint64_t seq) {
    const EventId id = queue.push_drawn(when, seq, [] {});
    admit(when, seq, id);
    return id;
  }

  void clear() {
    queue.clear();
    pending.clear();
    live.clear();
  }

  [[nodiscard]] bool empty() const { return pending.empty(); }

  void expect_same_state() const {
    EXPECT_EQ(queue.size(), pending.size());
    EXPECT_EQ(queue.empty(), pending.empty());
    EXPECT_EQ(queue.next_seq(), next_seq);
    std::vector<Key> keys;
    for (const auto& entry : pending) keys.push_back(entry.first);
    EXPECT_EQ(queue.pending_entries(), keys);
  }

 private:
  void admit(SimTime when, std::uint64_t seq, EventId id) {
    EXPECT_TRUE(issued.insert(id.value).second) << "EventId reused";
    const Key key{when.as_micros(), seq};
    EXPECT_TRUE(pending.emplace(key, id.value).second);
    live.emplace(id.value, key);
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
    ModelledQueue q;
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
          if (q.empty()) break;
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
          if (!q.empty()) (void)q.queue.next_time();  // memoize the front
          // Never behind the clock: the simulator only promotes deadlines
          // that have not passed.
          SimTime when = std::max(drawn[pick].first, SimTime::micros(base_us));
          if (!q.empty() && rng.chance(0.5)) when = q.queue.next_time();
          ids.push_back(q.push_drawn(when, drawn[pick].second));
          drawn.erase(drawn.begin() + static_cast<std::ptrdiff_t>(pick));
          break;
        }
      }
      if (step % 16 == 0) q.expect_same_state();
    }

    // Drain: the full residual order must match exactly.
    SimTime prev = SimTime::zero();
    while (!q.empty()) {
      const SimTime time = q.pop().first;
      EXPECT_LE(prev, time);
      prev = time;
    }
    q.expect_same_state();
  }
}

TEST(TimerWheelDifferential, SameTimestampBurstsPopFifoAcrossBackends) {
  ModelledQueue q;
  const SimTime t = SimTime::millis(7);
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(q.push(t));
  // Cancel a scattering mid-burst; survivors must still pop FIFO.
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  std::uint64_t prev_seq = 0;
  while (!q.empty()) {
    EXPECT_EQ(q.queue.next_time(), t);
    const std::uint64_t seq = q.queue.next_event_seq();
    EXPECT_LT(prev_seq, seq);
    prev_seq = seq;
    q.pop();
  }
}

TEST(TimerWheelDifferential, CancelAfterFireFailsOnBothBackends) {
  ModelledQueue q;
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
  ModelledQueue q;
  // One event per cascade level, plus overflow and infinity, pushed in
  // reverse time order so every pop crosses a level boundary.
  std::vector<std::int64_t> times;
  for (int l = 5; l >= 0; --l) times.push_back(kLevelSpanUs[l] + 1);
  times.push_back(kHorizonUs * 3 + 17);  // deep overflow
  for (const std::int64_t t : times) q.push(SimTime::micros(t));
  q.push(SimTime::infinity());

  SimTime prev = SimTime::zero();
  std::size_t popped = 0;
  while (!q.empty()) {
    const SimTime time = q.pop().first;
    EXPECT_LT(prev, time);
    prev = time;
    ++popped;
  }
  EXPECT_EQ(popped, times.size() + 1);
  EXPECT_TRUE(prev.is_infinite());
}

TEST(TimerWheelDifferential, ClearKeepsGenerationsOnBothBackends) {
  ModelledQueue q;
  const EventId id = q.push(SimTime::millis(1));
  q.push(SimTime::millis(2));
  q.clear();
  q.expect_same_state();
  EXPECT_TRUE(q.queue.empty());
  EXPECT_FALSE(q.cancel(id));  // stale handle must not alias new events
  const EventId next = q.push(SimTime::millis(3));
  EXPECT_NE(next.value, id.value);
  const auto [time, popped] = q.pop();
  EXPECT_EQ(time, SimTime::millis(3));
  EXPECT_EQ(popped.value, next.value);
}

TEST(TimerWheelDifferential, EmptyQueueThrowsOnBothBackends) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_TRUE(q.pending_entries().empty());
  // Draining through cancellation alone leaves only stale wheel entries.
  const EventId id = q.push(SimTime::millis(4), [] {});
  ASSERT_TRUE(q.cancel(id));
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_TRUE(q.pending_entries().empty());
}

}  // namespace
}  // namespace bgpsim::sim
