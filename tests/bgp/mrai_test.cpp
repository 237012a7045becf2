#include "bgp/mrai.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
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

class MraiTest : public ::testing::Test {
 protected:
  MraiTest() {
    timers_.set_expiry_handler(
        [this](net::NodeId peer, net::Prefix prefix, bool was_pending) {
          expiries_.push_back(Expiry{peer, prefix, was_pending, sim_.now()});
        });
  }

  sim::Simulator sim_;
  MraiTimers timers_;
  std::vector<Expiry> expiries_;
};

TEST_F(MraiTest, StartThenExpire) {
  timers_.start(3, 0, sim::SimTime::seconds(30), sim_);
  EXPECT_TRUE(timers_.running(3, 0));
  sim_.run();
  EXPECT_FALSE(timers_.running(3, 0));
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].peer, 3u);
  EXPECT_EQ(expiries_[0].at, sim::SimTime::seconds(30));
  EXPECT_FALSE(expiries_[0].was_pending);
}

TEST_F(MraiTest, PendingFlagReportedAtExpiry) {
  timers_.start(3, 0, sim::SimTime::seconds(30), sim_);
  timers_.set_pending(3, 0, true);
  EXPECT_TRUE(timers_.pending(3, 0));
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_TRUE(expiries_[0].was_pending);
}

TEST_F(MraiTest, PendingCanBeOverwritten) {
  timers_.start(3, 0, sim::SimTime::seconds(30), sim_);
  timers_.set_pending(3, 0, true);
  timers_.set_pending(3, 0, false);
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_FALSE(expiries_[0].was_pending);
}

TEST_F(MraiTest, SetPendingOnIdleTimerIsNoop) {
  timers_.set_pending(3, 0, true);
  EXPECT_FALSE(timers_.pending(3, 0));
  EXPECT_FALSE(timers_.any_pending());
}

TEST_F(MraiTest, TimersAreKeyedPerPeerAndPrefix) {
  timers_.start(3, 0, sim::SimTime::seconds(10), sim_);
  timers_.start(3, 1, sim::SimTime::seconds(20), sim_);
  timers_.start(4, 0, sim::SimTime::seconds(30), sim_);
  EXPECT_EQ(timers_.running_count(), 3u);
  EXPECT_TRUE(timers_.running(3, 1));
  EXPECT_FALSE(timers_.running(4, 1));
  sim_.run();
  EXPECT_EQ(expiries_.size(), 3u);
  EXPECT_EQ(timers_.running_count(), 0u);
}

TEST_F(MraiTest, CancelPeerDropsOnlyThatPeer) {
  timers_.start(3, 0, sim::SimTime::seconds(10), sim_);
  timers_.start(3, 1, sim::SimTime::seconds(10), sim_);
  timers_.start(4, 0, sim::SimTime::seconds(10), sim_);
  timers_.cancel_peer(3, sim_);
  EXPECT_EQ(timers_.running_count(), 1u);
  sim_.run();
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].peer, 4u);
}

TEST_F(MraiTest, AnyPendingReflectsHeldWork) {
  timers_.start(3, 0, sim::SimTime::seconds(10), sim_);
  EXPECT_FALSE(timers_.any_pending());
  timers_.set_pending(3, 0, true);
  EXPECT_TRUE(timers_.any_pending());
  sim_.run();
  EXPECT_FALSE(timers_.any_pending());
}

TEST_F(MraiTest, RestartAfterExpiryAllowed) {
  timers_.start(3, 0, sim::SimTime::seconds(10), sim_);
  sim_.run();
  timers_.start(3, 0, sim::SimTime::seconds(10), sim_);
  EXPECT_TRUE(timers_.running(3, 0));
  sim_.run();
  EXPECT_EQ(expiries_.size(), 2u);
  EXPECT_EQ(expiries_[1].at, sim::SimTime::seconds(20));
}

std::vector<std::uint8_t> saved(const MraiTimers& timers) {
  snap::Writer w;
  timers.save_state(w);
  return std::move(w).take();
}

/// The std::map the dense planes replaced, as a reference model: the same
/// running/pending answers and, written in key order, the same bytes.
struct ReferenceTimers {
  struct State {
    bool pending = false;
    std::uint64_t ev = 0;
  };
  std::map<std::pair<net::NodeId, net::Prefix>, State> timers;

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::Writer w;
    w.u64(timers.size());
    for (const auto& [key, st] : timers) {
      w.u32(key.first);
      w.u32(key.second);
      w.b(st.pending);
      w.u64(st.ev);
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

TEST(MraiPlanes, RandomHistoryMatchesMapReference) {
  constexpr net::NodeId kPeers = 6;
  constexpr net::Prefix kPrefixes = 12;
  for (const sim::QueueBackend backend :
       {sim::QueueBackend::kWheel, sim::QueueBackend::kHeap}) {
    SCOPED_TRACE(backend == sim::QueueBackend::kWheel ? "wheel" : "heap");
    sim::Simulator simulator{backend};
    MraiTimers timers;
    ReferenceTimers ref;
    std::uint64_t expired = 0;
    std::uint64_t bursts = 0;
    const auto retire = [&](net::NodeId peer, net::Prefix prefix,
                            bool was_pending) {
      const auto it = ref.timers.find({peer, prefix});
      ASSERT_NE(it, ref.timers.end());
      EXPECT_EQ(was_pending, it->second.pending);
      ref.timers.erase(it);
      ++expired;
    };
    timers.set_expiry_handler(retire);
    timers.set_burst_handler(
        [&](const std::vector<MraiTimers::Expiry>& batch) {
          ++bursts;
          for (const auto& e : batch) retire(e.peer, e.prefix, e.was_pending);
        });

    sim::Rng rng{2024};
    for (int step = 0; step < 4000; ++step) {
      const auto peer = static_cast<net::NodeId>(rng.next_below(kPeers));
      const auto prefix = static_cast<net::Prefix>(rng.next_below(kPrefixes));
      const std::uint64_t op = rng.next_below(10);
      if (op < 4) {
        if (timers.running(peer, prefix)) continue;
        // Few distinct durations: many timers coincide, so the wheel's
        // burst gather runs often.
        const std::uint64_t ev = simulator.next_schedule_id().value;
        timers.start(peer, prefix,
                     sim::SimTime::seconds(1 + rng.next_below(3)), simulator);
        ref.timers[{peer, prefix}] = ReferenceTimers::State{false, ev};
      } else if (op < 7) {
        const bool pending = rng.next_below(2) == 1;
        timers.set_pending(peer, prefix, pending);
        const auto it = ref.timers.find({peer, prefix});
        if (it != ref.timers.end()) it->second.pending = pending;
      } else if (op < 9) {
        simulator.step();
      } else if (rng.next_below(3) == 0) {
        timers.cancel_peer(peer, simulator);
        std::erase_if(ref.timers,
                      [&](const auto& kv) { return kv.first.first == peer; });
      } else {
        // In-place checkpoint round trip: the restored planes must answer
        // and serialize exactly as before.
        const std::vector<std::uint8_t> before = saved(timers);
        snap::Reader r{before};
        timers.restore_state(r);
        r.finish();
      }
      expect_matches(timers, ref, kPeers, kPrefixes,
                     "step " + std::to_string(step));
      if (HasFatalFailure()) return;
    }
    simulator.run();
    expect_matches(timers, ref, kPeers, kPrefixes, "drained");
    EXPECT_GT(expired, 500u);
    EXPECT_EQ(bursts > 0, simulator.burst_delivery());
  }
}

TEST(MraiPlanes, LargeBurstConsumesExactlyItsOwnEventsInOrder) {
  // 1,200 timers of one owner coincide at t = 10 s, interleaved in the
  // queue with a foreign closure and with another owner's timer whose tag
  // names a still-running timer of the first. The gather must take the
  // first owner's events in FIFO order and stop at each foreign event.
  sim::Simulator simulator{sim::QueueBackend::kWheel};
  ASSERT_TRUE(simulator.burst_delivery());
  MraiTimers a;
  MraiTimers b;
  std::vector<std::pair<net::NodeId, net::Prefix>> order;  // a's starts
  std::vector<std::string> log;
  std::vector<std::size_t> a_batches;
  a.set_expiry_handler([&](net::NodeId peer, net::Prefix prefix, bool) {
    log.push_back("a " + std::to_string(peer) + "/" + std::to_string(prefix));
    a_batches.push_back(1);
  });
  a.set_burst_handler([&](const std::vector<MraiTimers::Expiry>& batch) {
    for (const auto& e : batch) {
      log.push_back("a " + std::to_string(e.peer) + "/" +
                    std::to_string(e.prefix));
    }
    a_batches.push_back(batch.size());
  });
  b.set_expiry_handler([&](net::NodeId peer, net::Prefix prefix, bool) {
    log.push_back("b " + std::to_string(peer) + "/" + std::to_string(prefix));
  });

  const auto when = sim::SimTime::seconds(10);
  // Peers descending and prefixes scattered: FIFO order, not key order.
  const auto key_of = [](std::size_t i) {
    return std::pair{static_cast<net::NodeId>(39 - i % 40),
                     static_cast<net::Prefix>((i / 40) * 7 % 30)};
  };
  const auto start_a = [&](std::size_t i) {
    const auto [peer, prefix] = key_of(i);
    a.start(peer, prefix, when, simulator);
    order.emplace_back(peer, prefix);
  };
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 600; ++i) start_a(i);
  simulator.schedule_at(when, [&] { log.push_back("foreign"); });
  for (std::size_t i = 600; i < 900; ++i) start_a(i);
  // Same key as a's timer #1100, which is still running when reached.
  const auto collide = key_of(1100);
  b.start(collide.first, collide.second, when, simulator);
  for (std::size_t i = 900; i < 1200; ++i) start_a(i);
  ASSERT_EQ(a.running_count(), 1200u);

  for (std::size_t i = 0; i < 1200; ++i) {
    if (i == 600) expected.push_back("foreign");
    if (i == 900) {
      expected.push_back("b " + std::to_string(collide.first) + "/" +
                         std::to_string(collide.second));
    }
    expected.push_back("a " + std::to_string(order[i].first) + "/" +
                       std::to_string(order[i].second));
  }

  const std::uint64_t fired = simulator.run();
  EXPECT_EQ(fired, 1202u);  // consumed events count as fired
  EXPECT_EQ(log, expected);
  EXPECT_EQ(a_batches, (std::vector<std::size_t>{600, 300, 300}));
  EXPECT_EQ(a.running_count(), 0u);
  EXPECT_EQ(b.running_count(), 0u);
}

TEST(MraiPlanes, SessionDownThenUpReaddsThePeerRow) {
  sim::Simulator simulator;
  MraiTimers timers;
  std::vector<std::pair<net::NodeId, net::Prefix>> expired;
  timers.set_expiry_handler([&](net::NodeId peer, net::Prefix prefix, bool) {
    expired.emplace_back(peer, prefix);
  });
  const auto t = sim::SimTime::seconds(5);
  for (const net::NodeId peer : {3u, 5u, 7u}) {
    for (net::Prefix prefix = 0; prefix < 4; ++prefix) {
      timers.start(peer, prefix, t, simulator);
    }
  }
  timers.set_pending(5, 2, true);
  ASSERT_TRUE(timers.any_pending());

  timers.cancel_peer(5, simulator);  // session down: the row goes
  EXPECT_EQ(timers.running_count(), 8u);
  EXPECT_FALSE(timers.running(5, 2));
  EXPECT_FALSE(timers.any_pending());

  // Session up: a fresh row for peer 5 lands between 3 and 7.
  const std::uint64_t ev = simulator.next_schedule_id().value;
  timers.start(5, 9, t, simulator);
  EXPECT_TRUE(timers.running(5, 9));
  EXPECT_FALSE(timers.running(5, 0));
  // Read the live ids back through the checkpoint, then check the order.
  const std::vector<std::uint8_t> bytes = saved(timers);
  snap::Reader r{bytes};
  ASSERT_EQ(r.u64(), 9u);
  std::vector<std::pair<net::NodeId, net::Prefix>> keys;
  for (int i = 0; i < 9; ++i) {
    const net::NodeId peer = r.u32();
    const net::Prefix prefix = r.u32();
    (void)r.b();
    const std::uint64_t id = r.u64();
    if (peer == 5) {
      EXPECT_EQ(id, ev);
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

TEST(MraiPlanes, RestoreRejectsOutOfRangePrefixAndNullEvent) {
  MraiTimers timers;
  {
    snap::Writer w;
    w.u64(1);
    w.u32(3);
    w.u32(net::kMaxPrefixes);
    w.b(false);
    w.u64(7);
    snap::Reader r{w.bytes()};
    EXPECT_THROW(timers.restore_state(r), snap::FormatError);
  }
  {
    snap::Writer w;
    w.u64(1);
    w.u32(3);
    w.u32(0);
    w.b(false);
    w.u64(0);
    snap::Reader r{w.bytes()};
    EXPECT_THROW(timers.restore_state(r), snap::FormatError);
  }
}

}  // namespace
}  // namespace bgpsim::bgp
