// Unit tests driving a single Speaker directly (no processing queues), with
// deterministic MRAI (jitter disabled) and a star topology around the
// speaker so transport delivery works.
#include "bgp/speaker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "snap/codec.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

struct Sent {
  net::NodeId to;
  UpdateMsg msg;
  sim::SimTime at;
};

class SpeakerTest : public ::testing::Test {
 protected:
  SpeakerTest()
      : topo_{topo::make_star(5)},  // center 0, spokes 1..4
        transport_{sim_, topo_},
        speaker_{0, make_config(), sim_, transport_, fib_, sim::Rng{1},
                 test::paths()} {
    speaker_.set_peers({1, 2, 3, 4});
    speaker_.set_hooks(Speaker::Hooks{
        .on_update_sent =
            [this](net::NodeId, net::NodeId to, const UpdateMsg& msg) {
              sent_.push_back(Sent{to, msg, sim_.now()});
            },
        .on_best_changed = nullptr,
    });
  }

  virtual BgpConfig make_config() {
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    c.jitter_lo = 1.0;  // deterministic timers
    c.jitter_hi = 1.0;
    return c;
  }

  /// All messages sent to `peer`, in order.
  std::vector<Sent> to(net::NodeId peer) const {
    std::vector<Sent> out;
    for (const auto& s : sent_) {
      if (s.to == peer) out.push_back(s);
    }
    return out;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Transport transport_;
  fwd::Fib fib_;
  Speaker speaker_;
  std::vector<Sent> sent_;
};

TEST_F(SpeakerTest, AdoptsAnnouncedRouteAndReadvertises) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const AsPath* loc = speaker_.loc_rib().get(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 1, 9}));
  EXPECT_EQ(fib_.next_hop(kP), 1u);
  // Advertised to all four peers.
  EXPECT_EQ(sent_.size(), 4u);
  for (const auto& s : sent_) {
    ASSERT_FALSE(s.msg.is_withdrawal());
    EXPECT_EQ(*s.msg.path, test::path_of({0, 1, 9}));
  }
}

TEST_F(SpeakerTest, PoisonReverseDiscardsPathContainingSelf) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 0, 9})));
  EXPECT_EQ(speaker_.loc_rib().get(kP), nullptr);
  EXPECT_EQ(speaker_.adj_rib_in().get(kP, 1), nullptr);
  EXPECT_EQ(speaker_.counters().poison_reverse_discards, 1u);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(SpeakerTest, PoisonedAnnounceReplacesEarlierGoodRoute) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  // Peer 1 now reports a path through us: acts as an implicit withdrawal.
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 0, 9})));
  EXPECT_EQ(speaker_.loc_rib().get(kP), nullptr);
  // We must retract our previous advertisement (withdrawals bypass MRAI).
  ASSERT_FALSE(sent_.empty());
  for (const auto& s : sent_) EXPECT_TRUE(s.msg.is_withdrawal());
}

TEST_F(SpeakerTest, PicksBetterRouteAmongPeers) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  const AsPath* loc = speaker_.loc_rib().get(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 2, 9}));
  EXPECT_EQ(fib_.next_hop(kP), 2u);
}

TEST_F(SpeakerTest, FallsBackOnWithdrawal) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  speaker_.handle_update(1, UpdateMsg::withdraw(kP));
  const AsPath* loc = speaker_.loc_rib().get(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 2, 8, 9}));
}

TEST_F(SpeakerTest, MraiHoldsSecondAnnouncement) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  sent_.clear();
  // A better (shorter) route arrives 1 s later: its announcement must wait
  // for the 30 s MRAI timer started by the first one.
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(*msgs[0].msg.path, test::path_of({0, 2, 9}));
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(30));
}

TEST_F(SpeakerTest, IntermediateFlapsNeverTransmitted) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  sent_.clear();
  // Two changes inside the MRAI window; only the final state goes out.
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  });
  sim_.schedule_at(sim::SimTime::seconds(2), [&] {
    speaker_.handle_update(2, UpdateMsg::withdraw(kP));
  });
  sim_.run();
  // Back to the original (1 8 9) route: nothing new to say at expiry.
  EXPECT_TRUE(to(3).empty());
}

TEST_F(SpeakerTest, WithdrawalBypassesMraiByDefault) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_.handle_update(1, UpdateMsg::withdraw(kP));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(1));  // not delayed
}

TEST_F(SpeakerTest, TimerExpiryWithoutChangeSendsNothing) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const auto before = sent_.size();
  sim_.run();  // all MRAI timers expire silently
  EXPECT_EQ(sent_.size(), before);
  EXPECT_TRUE(speaker_.quiescent());
  EXPECT_FALSE(speaker_.timers_running());
}

TEST_F(SpeakerTest, OriginationAnnouncesSelfPath) {
  speaker_.originate(kP);
  ASSERT_NE(speaker_.loc_rib().get(kP), nullptr);
  EXPECT_EQ(*speaker_.loc_rib().get(kP), test::path_of({0}));
  EXPECT_TRUE(speaker_.originates(kP));
  EXPECT_EQ(sent_.size(), 4u);
  EXPECT_FALSE(fib_.next_hop(kP).has_value());  // local delivery
}

TEST_F(SpeakerTest, OriginPrefersOwnRouteOverLearned) {
  speaker_.originate(kP);
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  EXPECT_EQ(*speaker_.loc_rib().get(kP), test::path_of({0}));
}

TEST_F(SpeakerTest, TdownWithdrawalGoesOutImmediately) {
  speaker_.originate(kP);
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_.withdraw_origin(kP);
  });
  sim_.run();
  const auto msgs = to(2);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(1));
  EXPECT_EQ(speaker_.loc_rib().get(kP), nullptr);
}

TEST_F(SpeakerTest, SessionDownDropsPeerRoutesAndReruns) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  sent_.clear();
  speaker_.handle_session(1, false);
  EXPECT_EQ(speaker_.adj_rib_in().get(kP, 1), nullptr);
  EXPECT_EQ(*speaker_.loc_rib().get(kP), test::path_of({0, 2, 8, 9}));
  EXPECT_FALSE(std::ranges::binary_search(speaker_.peers(), 1u));
  // The replacement announce waits out the MRAI timers started by the
  // first advertisement, then goes to the remaining peers — never to 1.
  sim_.run();
  EXPECT_TRUE(to(1).empty());
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(*msgs[0].msg.path, test::path_of({0, 2, 8, 9}));
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(30));
}

TEST_F(SpeakerTest, SessionUpTriggersFullTable) {
  speaker_.handle_session(1, false);
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  sent_.clear();
  speaker_.handle_session(1, true);
  const auto msgs = to(1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(*msgs[0].msg.path, test::path_of({0, 2, 9}));
}

TEST_F(SpeakerTest, StrayUpdateFromNonPeerIgnored) {
  speaker_.handle_session(1, false);
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  EXPECT_EQ(speaker_.loc_rib().get(kP), nullptr);
}

TEST_F(SpeakerTest, NeverRetractsWhatWasNeverAnnounced) {
  // A withdrawal arriving when we had nothing must not trigger outbound
  // withdrawals to peers that never heard an announcement from us.
  speaker_.handle_update(1, UpdateMsg::withdraw(kP));
  EXPECT_TRUE(sent_.empty());
}

TEST_F(SpeakerTest, CountersTrackActivity) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(1, UpdateMsg::withdraw(kP));
  const auto& c = speaker_.counters();
  EXPECT_EQ(c.updates_received, 2u);
  EXPECT_EQ(c.best_path_changes, 2u);
  EXPECT_GT(c.announcements_sent, 0u);
  EXPECT_GT(c.withdrawals_sent, 0u);
}

TEST_F(SpeakerTest, MraiRestartsAfterHeldSend) {
  // First announce at t=0 starts the timer; a change at t=1 is held and
  // sent at t=30, which must start a fresh timer: a change at t=31 is then
  // held until t=60.
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  });
  sim_.schedule_at(sim::SimTime::seconds(31), [&] {
    speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 7})));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[1].at, sim::SimTime::seconds(30));
  EXPECT_EQ(msgs[2].at, sim::SimTime::seconds(60));
}

// The Adj-RIB-Out entry and the MRAI timer toward a peer share one cell;
// a session loss must clear both halves. Were the Adj-RIB-Out half kept,
// the re-established peer would be skipped as already holding (0 2 9);
// were the timer kept, the offer would be held until t = 30 s.
TEST_F(SpeakerTest, SessionDownClearsBothHalvesOfTheOutboundCell) {
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  ASSERT_EQ(to(1).size(), 1u);  // announced, and peer 1's timer runs
  sim_.schedule_at(sim::SimTime::seconds(5), [&] {
    speaker_.handle_session(1, false);
    speaker_.handle_session(1, true);
  });
  sim_.run_until(sim::SimTime::seconds(6));
  const auto msgs = to(1);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[1].at, sim::SimTime::seconds(5));
  EXPECT_EQ(*msgs[1].msg.path, test::path_of({0, 2, 9}));
  EXPECT_TRUE(speaker_.timers_running());  // the new offer restarted it
}

// Save then in-place restore reproduces the checkpoint bytes of cells in
// every state: announced, withdrawn, holding a decision, and never sent.
TEST_F(SpeakerTest, OutboundCellsRoundTripThroughTheCheckpoint) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(3, UpdateMsg::announce(5, test::path_of({3, 7})));
  speaker_.handle_update(1, UpdateMsg::withdraw(kP));  // bypasses MRAI
  // Held behind the running timers: the cells now hold a decision.
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  speaker_.handle_session(4, false);
  ASSERT_FALSE(speaker_.quiescent());

  snap::Writer before;
  speaker_.save_state(before);
  snap::Reader r{before.bytes()};
  speaker_.restore_state(r);
  r.finish();
  snap::Writer after;
  speaker_.save_state(after);
  EXPECT_EQ(after.bytes(), before.bytes());

  // The restored held decisions still go out at expiry.
  sent_.clear();
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(30));
  EXPECT_EQ(*msgs[0].msg.path, test::path_of({0, 2, 9}));
  EXPECT_TRUE(to(4).empty());
}

// A multiprefix batch applies every update, then runs one decision pass
// per distinct prefix: withdrawing and re-announcing prefix 0 in one batch
// moves its best path once, straight to the new route, and each peer gets
// one batched wire message in first-touch prefix order.
TEST(SpeakerBatch, WithdrawAndReannounceInOneBatchDecidesOnce) {
  sim::Simulator sim;
  net::Topology topo = topo::make_star(3);  // center 0, spokes 1 and 2
  net::Transport transport{sim, topo};
  fwd::Fib fib;
  BgpConfig config;
  config.mrai = sim::SimTime::seconds(30);
  config.jitter_lo = 1.0;
  config.jitter_hi = 1.0;
  config.multiprefix = true;
  Speaker speaker{0, config, sim, transport, fib, sim::Rng{1}, test::paths()};
  speaker.set_peers({1, 2});
  std::vector<std::optional<AsPath>> best_changes;
  speaker.set_hooks(Speaker::Hooks{
      .on_best_changed =
          [&](net::NodeId, net::Prefix prefix,
              const std::optional<AsPath>& best) {
            if (prefix == 0) best_changes.push_back(best);
          },
  });
  std::vector<net::Envelope> wire;
  transport.set_delivery_handler(
      [&](net::Envelope env) { wire.push_back(std::move(env)); });

  speaker.handle_update(1, UpdateMsg::announce(0, test::path_of({1, 9})));
  sim.run();
  ASSERT_EQ(best_changes.size(), 1u);
  wire.clear();

  UpdateBatch batch;
  batch.updates = {UpdateMsg::withdraw(0),
                   UpdateMsg::announce(1, test::path_of({1, 5})),
                   UpdateMsg::announce(0, test::path_of({1, 8, 9})),
                   UpdateMsg::withdraw(1),
                   UpdateMsg::announce(1, test::path_of({1, 6}))};
  // After the timers the first announcement started have expired.
  sim.schedule_at(sim::SimTime::seconds(100),
                  [&] { speaker.handle_update_batch(1, batch); });
  sim.run();

  ASSERT_EQ(best_changes.size(), 2u);
  EXPECT_EQ(best_changes[1], test::path_of({0, 1, 8, 9}));
  EXPECT_EQ(speaker.counters().updates_received, 6u);
  EXPECT_EQ(speaker.counters().best_path_changes, 3u);  // 0 twice, 1 once
  ASSERT_EQ(wire.size(), 2u);  // one message per peer, peers ascending
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].to, static_cast<net::NodeId>(i + 1));
    ASSERT_TRUE(wire[i].payload.is<UpdateBatch>());
    const auto& updates = wire[i].payload.get<UpdateBatch>().updates;
    ASSERT_EQ(updates.size(), 2u);
    EXPECT_EQ(updates[0].prefix, 0u);
    EXPECT_EQ(*updates[0].path, test::path_of({0, 1, 8, 9}));
    EXPECT_EQ(updates[1].prefix, 1u);
    EXPECT_EQ(*updates[1].path, test::path_of({0, 1, 6}));
  }
}

}  // namespace
}  // namespace bgpsim::bgp
