#include "bgp/mrai.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {
namespace {

struct Expiry {
  net::NodeId peer;
  net::Prefix prefix;
  bool was_pending;
  sim::SimTime at;
};

/// Every expiry reaches the handler here (set_every_expiry), as for an
/// observer that reads them all; the Silent* cases below cover the
/// default, where only timers that hold a decision run as events.
class MraiTest : public ::testing::Test {
 protected:
  MraiTest() {
    timers_.set_every_expiry(true);
    timers_.set_expiry_handler([this](net::NodeId peer, net::Prefix prefix,
                                      OutboundCell&, bool was_pending) {
      expiries_.push_back(Expiry{peer, prefix, was_pending, sim_.now()});
    });
  }

  sim::Simulator sim_;
  PeerPlane plane_;
  MraiTimers timers_{sim_, plane_};
  std::vector<Expiry> expiries_;
};

TEST_F(MraiTest, StartThenExpire) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(30));
  EXPECT_TRUE(timers_.running(3, 0));
  sim_.run();
  EXPECT_FALSE(timers_.running(3, 0));
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].peer, 3u);
  EXPECT_EQ(expiries_[0].at, sim::SimTime::seconds(30));
  EXPECT_FALSE(expiries_[0].was_pending);
}

TEST_F(MraiTest, PendingFlagReportedAtExpiry) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(30));
  timers_.set_pending(3, 0, plane_.at(3, 0), true);
  EXPECT_TRUE(timers_.pending(3, 0));
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_TRUE(expiries_[0].was_pending);
}

TEST_F(MraiTest, PendingCanBeOverwritten) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(30));
  timers_.set_pending(3, 0, plane_.at(3, 0), true);
  timers_.set_pending(3, 0, plane_.at(3, 0), false);
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_FALSE(expiries_[0].was_pending);
}

TEST_F(MraiTest, SetPendingOnIdleTimerIsNoop) {
  timers_.set_pending(3, 0, plane_.at(3, 0), true);
  EXPECT_FALSE(timers_.pending(3, 0));
  EXPECT_FALSE(timers_.any_pending());
}

TEST_F(MraiTest, TimersAreKeyedPerPeerAndPrefix) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(10));
  timers_.start(3, 1, plane_.at(3, 1), sim::SimTime::seconds(20));
  timers_.start(4, 0, plane_.at(4, 0), sim::SimTime::seconds(30));
  EXPECT_EQ(timers_.running_count(), 3u);
  EXPECT_TRUE(timers_.running(3, 1));
  EXPECT_FALSE(timers_.running(4, 1));
  sim_.run();
  EXPECT_EQ(expiries_.size(), 3u);
  EXPECT_EQ(timers_.running_count(), 0u);
}

TEST_F(MraiTest, CancelPeerDropsOnlyThatPeer) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(10));
  timers_.start(3, 1, plane_.at(3, 1), sim::SimTime::seconds(10));
  timers_.start(4, 0, plane_.at(4, 0), sim::SimTime::seconds(10));
  timers_.cancel_peer(3);
  EXPECT_EQ(timers_.running_count(), 1u);
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].peer, 4u);
}

TEST_F(MraiTest, AnyPendingReflectsHeldWork) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(10));
  EXPECT_FALSE(timers_.any_pending());
  timers_.set_pending(3, 0, plane_.at(3, 0), true);
  EXPECT_TRUE(timers_.any_pending());
  sim_.run();
  EXPECT_FALSE(timers_.any_pending());
}

TEST_F(MraiTest, RestartAfterExpiryAllowed) {
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(10));
  sim_.run();
  timers_.start(3, 0, plane_.at(3, 0), sim::SimTime::seconds(10));
  EXPECT_TRUE(timers_.running(3, 0));
  sim_.run();
  EXPECT_EQ(expiries_.size(), 2u);
  EXPECT_EQ(expiries_[1].at, sim::SimTime::seconds(20));
}

TEST(MraiSilent, ExpiryWithoutDecisionRunsNoClosure) {
  sim::Simulator simulator;
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  int calls = 0;
  timers.set_expiry_handler(
      [&](net::NodeId, net::Prefix, OutboundCell&, bool) { ++calls; });
  timers.start(3, 0, plane.at(3, 0), sim::SimTime::seconds(30));
  EXPECT_TRUE(timers.running(3, 0));
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_EQ(simulator.run(), 1u);  // the deadline counts as an event
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(timers.running(3, 0));
  EXPECT_EQ(simulator.now(), sim::SimTime::seconds(30));
  EXPECT_EQ(simulator.events_fired(), 1u);
  EXPECT_EQ(simulator.deadlines_passed(), 1u);
}

TEST(MraiSilent, HeldDecisionPromotesTheTimerInPlace) {
  sim::Simulator simulator;
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  std::vector<std::string> log;
  timers.set_expiry_handler(
      [&](net::NodeId peer, net::Prefix, OutboundCell&, bool pending) {
        log.push_back("mrai " + std::to_string(peer) +
                      (pending ? " held" : ""));
      });
  const auto t = sim::SimTime::seconds(5);
  timers.start(1, 0, plane.at(1, 0), t);                        // seq 1
  simulator.schedule_at(t, [&] { log.push_back("between"); });  // seq 2
  timers.start(2, 0, plane.at(2, 0), t);                        // seq 3
  // Promoting the later timer queues it at its original seq 3: after the
  // closure drawn in between, not at the back of the queue.
  timers.set_pending(2, 0, plane.at(2, 0), true);
  simulator.schedule_at(t, [&] { log.push_back("after"); });  // seq 4
  EXPECT_EQ(simulator.run(), 4u);
  EXPECT_EQ(log, (std::vector<std::string>{"between", "mrai 2 held", "after"}));
  EXPECT_EQ(simulator.deadlines_passed(), 1u);
  EXPECT_FALSE(timers.any_pending());
}

TEST(MraiSilent, CancelPeerWithdrawsSilentAndPromotedTimers) {
  sim::Simulator simulator;
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  int calls = 0;
  timers.set_expiry_handler(
      [&](net::NodeId, net::Prefix, OutboundCell&, bool) { ++calls; });
  timers.start(3, 0, plane.at(3, 0), sim::SimTime::seconds(10));
  timers.start(3, 1, plane.at(3, 1), sim::SimTime::seconds(10));
  timers.set_pending(3, 1, plane.at(3, 1), true);
  timers.start(4, 0, plane.at(4, 0), sim::SimTime::seconds(10));
  EXPECT_EQ(simulator.pending(), 3u);
  timers.cancel_peer(3);
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_FALSE(timers.any_pending());
  EXPECT_EQ(simulator.run(), 1u);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(simulator.deadlines_passed(), 1u);
}

std::vector<std::uint8_t> saved(const MraiTimers& timers) {
  snap::Writer w;
  timers.save_state(w);
  return std::move(w).take();
}

/// A reference model: the std::map the dense planes replaced, plus an
/// explicit (time, seq) order over every outstanding timer and probe
/// event — the order a queue holding every timer as a closure would fire
/// them in. Written in key order, the running timers give the same bytes.
struct ReferenceTimers {
  struct State {
    std::int64_t deadline_us = 0;
    std::uint64_t seq = 0;
    bool pending = false;
    bool promoted = false;  // runs as a queued event (held a decision)
  };
  std::map<std::pair<net::NodeId, net::Prefix>, State> timers;
  /// (time µs, seq) -> the timer key, or kProbe for a probe event.
  std::map<std::pair<std::int64_t, std::uint64_t>,
           std::pair<net::NodeId, net::Prefix>>
      order;
  static constexpr std::pair<net::NodeId, net::Prefix> kProbe{~0u, 0};

  void erase(std::pair<net::NodeId, net::Prefix> key) {
    const auto it = timers.find(key);
    order.erase({it->second.deadline_us, it->second.seq});
    timers.erase(it);
  }

  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  pending_entries() const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    for (const auto& [at, key] : order) out.push_back(at);
    return out;
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::Writer w;
    w.u64(timers.size());
    for (const auto& [key, st] : timers) {
      w.u32(key.first);
      w.u32(key.second);
      w.i64(st.deadline_us);
      w.u64(st.seq);
      w.b(st.pending);
    }
    return std::move(w).take();
  }
};

void expect_matches(const MraiTimers& timers, const ReferenceTimers& ref,
                    net::NodeId peers, net::Prefix prefixes,
                    const std::string& where) {
  SCOPED_TRACE(where);
  bool any_pending = false;
  for (net::NodeId peer = 0; peer < peers; ++peer) {
    for (net::Prefix prefix = 0; prefix < prefixes; ++prefix) {
      const auto it = ref.timers.find({peer, prefix});
      const bool running = it != ref.timers.end();
      const bool pending = running && it->second.pending;
      any_pending = any_pending || pending;
      ASSERT_EQ(timers.running(peer, prefix), running)
          << "peer " << peer << " prefix " << prefix;
      ASSERT_EQ(timers.pending(peer, prefix), pending)
          << "peer " << peer << " prefix " << prefix;
    }
  }
  ASSERT_EQ(timers.running_count(), ref.timers.size());
  ASSERT_EQ(timers.any_pending(), any_pending);
  ASSERT_EQ(saved(timers), ref.bytes());
}

/// Random starts, held decisions (promotions), session drops, in-place
/// checkpoint round trips and probe events, advanced one step at a time:
/// the timers, the simulator's pending set and its fired count must track
/// the reference, with the expiry handler reached by exactly the promoted
/// timers (every timer when every expiry is observed). Probes land at the
/// timers' deadline microseconds, before and after them in seq order, and
/// query running() from inside the event.
TEST(MraiPlanes, RandomHistoryMatchesMapReference) {
  constexpr net::NodeId kPeers = 6;
  constexpr net::Prefix kPrefixes = 12;
  const std::vector<net::NodeId> all_peers{0, 1, 2, 3, 4, 5};
  for (const bool every : {false, true}) {
    SCOPED_TRACE(every ? "every expiry" : "silent");
    sim::Simulator simulator;
    PeerPlane plane;
    MraiTimers timers{simulator, plane};
    timers.set_every_expiry(every);
    ReferenceTimers ref;
    std::uint64_t expired = 0;
    std::uint64_t handled = 0;
    std::uint64_t expect_handled = 0;
    std::uint64_t promotions = 0;
    std::uint64_t probes = 0;
    std::uint64_t fired = 0;
    // The timer the next step must expire through the handler, if any.
    std::optional<std::pair<std::pair<net::NodeId, net::Prefix>, bool>> due;
    timers.set_expiry_handler(
        [&](net::NodeId peer, net::Prefix prefix, OutboundCell&,
            bool was_pending) {
          ASSERT_TRUE(due.has_value());
          EXPECT_EQ(due->first, (std::pair{peer, prefix}));
          EXPECT_EQ(due->second, was_pending);
          due.reset();
          ++handled;
        });
    const auto probe = [&] {
      expect_matches(timers, ref, kPeers, kPrefixes, "probe");
      ++probes;
    };
    // Fire the reference's next event through one simulator step.
    const auto step = [&] {
      if (ref.order.empty()) {
        EXPECT_FALSE(simulator.step());
        return;
      }
      const auto key = ref.order.begin()->second;
      ref.order.erase(ref.order.begin());
      if (key != ReferenceTimers::kProbe) {
        const ReferenceTimers::State st = ref.timers.at(key);
        ref.timers.erase(key);
        ++expired;
        if (st.promoted) {
          due.emplace(key, st.pending);
          ++expect_handled;
        }
      }
      ASSERT_TRUE(simulator.step());
      EXPECT_FALSE(due.has_value());
      ++fired;
    };

    sim::Rng rng{2024};
    for (int i = 0; i < 4000; ++i) {
      const auto peer = static_cast<net::NodeId>(rng.next_below(kPeers));
      const auto prefix = static_cast<net::Prefix>(rng.next_below(kPrefixes));
      const std::uint64_t op = rng.next_below(12);
      // Few distinct durations: deadlines and probes share microseconds.
      const sim::SimTime delay = sim::SimTime::seconds(1 + rng.next_below(3));
      if (op < 4) {
        if (timers.running(peer, prefix)) continue;
        const std::uint64_t seq = simulator.event_seq();
        timers.start(peer, prefix, plane.at(peer, prefix), delay);
        const std::int64_t at = (simulator.now() + delay).as_micros();
        ref.timers[{peer, prefix}] =
            ReferenceTimers::State{at, seq, false, every};
        ref.order[{at, seq}] = {peer, prefix};
      } else if (op < 7) {
        const bool pending = rng.next_below(2) == 1;
        timers.set_pending(peer, prefix, plane.at(peer, prefix), pending);
        const auto it = ref.timers.find({peer, prefix});
        if (it != ref.timers.end() && it->second.pending != pending) {
          it->second.pending = pending;
          if (pending && !it->second.promoted) {
            it->second.promoted = true;
            ++promotions;
          }
        }
      } else if (op < 10) {
        step();
      } else if (op == 10) {
        const std::uint64_t seq = simulator.event_seq();
        simulator.schedule_after(delay, probe);
        ref.order[{(simulator.now() + delay).as_micros(), seq}] =
            ReferenceTimers::kProbe;
      } else if (rng.next_below(3) == 0) {
        timers.cancel_peer(peer);
        std::vector<std::pair<net::NodeId, net::Prefix>> gone;
        for (const auto& [key, st] : ref.timers) {
          if (key.first == peer) gone.push_back(key);
        }
        for (const auto& key : gone) ref.erase(key);
      } else {
        // In-place checkpoint round trip: the restored planes must answer
        // and serialize exactly as before.
        const std::vector<std::uint8_t> before = saved(timers);
        snap::Reader r{before};
        timers.restore_state(r, kPrefixes, all_peers);
        r.finish();
      }
      expect_matches(timers, ref, kPeers, kPrefixes,
                     "op " + std::to_string(i));
      ASSERT_EQ(simulator.pending_entries(), ref.pending_entries());
      ASSERT_EQ(simulator.pending(), ref.order.size());
      ASSERT_EQ(simulator.events_fired(), fired);
      if (HasFatalFailure()) return;
    }
    while (!ref.order.empty()) {
      step();
      if (HasFatalFailure()) return;
    }
    step();  // nothing left
    expect_matches(timers, ref, kPeers, kPrefixes, "drained");
    EXPECT_EQ(simulator.events_fired(), fired);
    EXPECT_GT(expired, 500u);
    EXPECT_GE(promotions, every ? 0u : 100u);  // queued from the start
    EXPECT_GT(probes, 100u);
    EXPECT_EQ(handled, expect_handled);
    if (every) {
      EXPECT_EQ(handled, expired);
    } else {
      EXPECT_GT(handled, 0u);
      EXPECT_LT(handled, expired);
    }
  }
}

TEST(MraiPlanes, SessionDownThenUpReaddsThePeerRow) {
  sim::Simulator simulator;
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  timers.set_every_expiry(true);
  std::vector<std::pair<net::NodeId, net::Prefix>> expired;
  timers.set_expiry_handler(
      [&](net::NodeId peer, net::Prefix prefix, OutboundCell&, bool) {
        expired.emplace_back(peer, prefix);
      });
  const auto t = sim::SimTime::seconds(5);
  for (const net::NodeId peer : {3u, 5u, 7u}) {
    for (net::Prefix prefix = 0; prefix < 4; ++prefix) {
      timers.start(peer, prefix, plane.at(peer, prefix), t);
    }
  }
  timers.set_pending(5, 2, plane.at(5, 2), true);
  ASSERT_TRUE(timers.any_pending());

  timers.cancel_peer(5);  // session down: the peer's timers stop
  EXPECT_EQ(timers.running_count(), 8u);
  EXPECT_FALSE(timers.running(5, 2));
  EXPECT_FALSE(timers.any_pending());

  // Session up: a fresh row for peer 5 lands between 3 and 7.
  const std::uint64_t seq = simulator.event_seq();
  timers.start(5, 9, plane.at(5, 9), t);
  EXPECT_TRUE(timers.running(5, 9));
  EXPECT_FALSE(timers.running(5, 0));
  // Read the live records back through the checkpoint, then check the order.
  const std::vector<std::uint8_t> bytes = saved(timers);
  snap::Reader r{bytes};
  ASSERT_EQ(r.u64(), 9u);
  std::vector<std::pair<net::NodeId, net::Prefix>> keys;
  for (int i = 0; i < 9; ++i) {
    const net::NodeId peer = r.u32();
    const net::Prefix prefix = r.u32();
    EXPECT_EQ(r.i64(), t.as_micros());
    const std::uint64_t record_seq = r.u64();
    (void)r.b();
    if (peer == 5) {
      EXPECT_EQ(record_seq, seq);
    }
    keys.emplace_back(peer, prefix);
  }
  r.finish();
  const std::vector<std::pair<net::NodeId, net::Prefix>> want{
      {3, 0}, {3, 1}, {3, 2}, {3, 3}, {5, 9}, {7, 0}, {7, 1}, {7, 2}, {7, 3}};
  EXPECT_EQ(keys, want);

  simulator.run();
  EXPECT_EQ(expired.size(), 9u);
  EXPECT_EQ(std::count(expired.begin(), expired.end(),
                       std::pair<net::NodeId, net::Prefix>{5, 9}),
            1);
}

/// One record per call: (peer, prefix, deadline µs, seq, pending).
std::vector<std::uint8_t> records(
    const std::vector<std::tuple<net::NodeId, net::Prefix, std::int64_t,
                                 std::uint64_t, bool>>& rows) {
  snap::Writer w;
  w.u64(rows.size());
  for (const auto& [peer, prefix, deadline_us, seq, pending] : rows) {
    w.u32(peer);
    w.u32(prefix);
    w.i64(deadline_us);
    w.u64(seq);
    w.b(pending);
  }
  return std::move(w).take();
}

// A record that names no valid timer is refused: an out-of-range prefix,
// and — where the v5 record could carry a null event id — a deadline
// already passed at the recorded clock, a seq not yet drawn, or a key
// given twice. The same record with sound fields restores.
TEST(MraiPlanes, RestoreRejectsOutOfRangePrefixAndNullEvent) {
  sim::Simulator simulator;
  simulator.schedule_at(sim::SimTime::seconds(10), [] {});
  simulator.run();  // clock 10 s; seqs 1..1 drawn
  ASSERT_EQ(simulator.event_seq(), 2u);
  const std::int64_t later = sim::SimTime::seconds(20).as_micros();
  const std::int64_t earlier = sim::SimTime::seconds(5).as_micros();
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  const std::vector<net::NodeId> peers{3};
  const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
    snap::Reader r{bytes};
    timers.restore_state(r, net::kMaxPrefixes, peers);
    r.finish();
  };
  EXPECT_THROW(restore(records({{3, net::kMaxPrefixes, later, 1, false}})),
               snap::FormatError);
  EXPECT_THROW(restore(records({{3, 0, earlier, 1, false}})),
               snap::FormatError);
  EXPECT_THROW(restore(records({{3, 0, later, 2, false}})), snap::FormatError);
  EXPECT_THROW(restore(records({{3, 0, later, 0, false}})), snap::FormatError);
  EXPECT_THROW(
      restore(records({{3, 0, later, 1, false}, {3, 0, later, 1, false}})),
      snap::FormatError);
  // A held decision needs its expiry queued; nothing is queued here.
  EXPECT_THROW(restore(records({{3, 0, later, 1, true}})), snap::FormatError);
  restore(records({{3, 0, later, 1, false}}));
  EXPECT_TRUE(timers.running(3, 0));
}

/// Restores `bytes` into fresh timers on a simulator at clock 10 s with
/// seq 1 drawn, for a speaker with sessions to peers 3 and 5 and `prefixes`
/// prefixes.
void restore_at_ten_seconds(const std::vector<std::uint8_t>& bytes,
                            std::uint32_t prefixes) {
  sim::Simulator simulator;
  simulator.schedule_at(sim::SimTime::seconds(10), [] {});
  simulator.run();
  PeerPlane plane;
  MraiTimers timers{simulator, plane};
  const std::vector<net::NodeId> peers{3, 5};
  snap::Reader r{bytes};
  timers.restore_state(r, prefixes, peers);
  r.finish();
}

TEST(MraiPlanes, RestoreRejectsAPrefixAtOrAboveP) {
  const std::int64_t later = sim::SimTime::seconds(20).as_micros();
  restore_at_ten_seconds(records({{3, 1, later, 1, false}}), 2);
  for (const net::Prefix prefix : {net::Prefix{2}, net::kMaxPrefixes - 1}) {
    EXPECT_THROW(
        restore_at_ten_seconds(records({{3, prefix, later, 1, false}}), 2),
        snap::FormatError)
        << "prefix " << prefix;
  }
}

TEST(MraiPlanes, RestoreRejectsATimerTowardANonPeer) {
  const std::int64_t later = sim::SimTime::seconds(20).as_micros();
  restore_at_ten_seconds(records({{5, 0, later, 1, false}}), 1);
  EXPECT_THROW(restore_at_ten_seconds(records({{4, 0, later, 1, false}}), 1),
               snap::FormatError);
}

}  // namespace
}  // namespace bgpsim::bgp
