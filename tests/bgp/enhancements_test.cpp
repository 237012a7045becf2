// Unit tests for the four convergence enhancements at the Speaker level.
#include <gtest/gtest.h>

#include <vector>

#include "bgp/speaker.hpp"
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

class EnhancementTest : public ::testing::Test {
 protected:
  void build(Enhancement e) {
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    c.jitter_lo = 1.0;
    c.jitter_hi = 1.0;
    c = c.with(e);
    speaker_.emplace(0, c, sim_, transport_, fib_, sim::Rng{1}, test::paths(),
                     ribs_);
    speaker_->set_peers({1, 2, 3, 4});
    speaker_->set_hooks(Speaker::Hooks{
        .on_update_sent =
            [this](net::NodeId, net::NodeId to, const UpdateMsg& msg) {
              sent_.push_back(Sent{to, msg, sim_.now()});
            },
        .on_best_changed = nullptr,
    });
  }

  std::vector<Sent> to(net::NodeId peer) const {
    std::vector<Sent> out;
    for (const auto& s : sent_) {
      if (s.to == peer) out.push_back(s);
    }
    return out;
  }

  sim::Simulator sim_;
  net::Topology topo_ = topo::make_star(5);
  net::Transport transport_{sim_, topo_};
  fwd::Fib fib_;
  rib::LocalRibs ribs_{1, 1};
  std::optional<Speaker> speaker_;
  std::vector<Sent> sent_;
};

// ---------------- SSLD ----------------

TEST_F(EnhancementTest, SsldConvertsLoopingAnnounceToWithdrawal) {
  build(Enhancement::kSsld);
  // Establish an advertised route first (not through peer 1), and let the
  // MRAI timers drain.
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  sim_.run();
  sent_.clear();
  // Switch to a better path through peer 1. Peer 1 appears in our new path
  // (0 1 9): it would discard the announce, so SSLD retracts the old route
  // with a withdrawal instead...
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const auto msgs1 = to(1);
  ASSERT_EQ(msgs1.size(), 1u);
  EXPECT_TRUE(msgs1[0].msg.is_withdrawal());
  EXPECT_EQ(speaker_->counters().ssld_conversions, 1u);
  // ...while other peers get the normal announcement.
  const auto msgs2 = to(2);
  ASSERT_EQ(msgs2.size(), 1u);
  EXPECT_FALSE(msgs2[0].msg.is_withdrawal());
}

TEST_F(EnhancementTest, SsldSkipsWithdrawalWhenNothingAdvertised) {
  build(Enhancement::kSsld);
  // Nothing was ever advertised to peer 1; adopting a path through peer 1
  // must not produce a spurious withdrawal to it.
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  EXPECT_TRUE(to(1).empty());
  const auto msgs2 = to(2);
  ASSERT_EQ(msgs2.size(), 1u);
  EXPECT_FALSE(msgs2[0].msg.is_withdrawal());
}

TEST_F(EnhancementTest, SsldWithdrawalIsNotMraiDelayed) {
  build(Enhancement::kSsld);
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  sent_.clear();
  // Switch to a path through peer 1 while peer 1's timer is running.
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(2, UpdateMsg::withdraw(kP));
  });
  sim_.schedule_at(sim::SimTime::seconds(2), [&] {
    speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  });
  sim_.run();
  // Peer 1 got a plain withdrawal at t=1 (no route); at t=2 the new path
  // contains peer 1, so SSLD keeps it withdrawn — no further message.
  const auto msgs = to(1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(1));
}

TEST_F(EnhancementTest, StandardBgpSendsLoopingAnnounce) {
  build(Enhancement::kStandard);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const auto msgs1 = to(1);
  ASSERT_EQ(msgs1.size(), 1u);
  EXPECT_FALSE(msgs1[0].msg.is_withdrawal());  // receiver will poison-reverse
}

// ---------------- WRATE ----------------

TEST_F(EnhancementTest, WrateDelaysWithdrawal) {
  build(Enhancement::kWrate);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(30));  // held by MRAI
}

TEST_F(EnhancementTest, WrateWithdrawalStartsTimer) {
  build(Enhancement::kWrate);
  // No prior announce: the withdrawal-side timer still spaces updates.
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sim_.schedule_at(sim::SimTime::seconds(40), [&] {  // timers expired
    speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  });
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(41), [&] {
    speaker_->handle_update(
        1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(40));
  // The follow-up announce waits for the timer the withdrawal started.
  EXPECT_FALSE(msgs[1].msg.is_withdrawal());
  EXPECT_EQ(msgs[1].at, sim::SimTime::seconds(70));
}

TEST_F(EnhancementTest, WrateSuppressesWithdrawAnnounceFlap) {
  build(Enhancement::kWrate);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  // Lose the route and regain an identical one within the MRAI window:
  // nothing is ever sent.
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  });
  sim_.schedule_at(sim::SimTime::seconds(2), [&] {
    speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  });
  sim_.run();
  EXPECT_TRUE(to(3).empty());
}

// ---------------- Ghost Flushing ----------------

TEST_F(EnhancementTest, GhostFlushOnPathWorsening) {
  build(Enhancement::kGhostFlushing);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  // The path worsens ((0 1 9) -> (0 2 8 9)) while announce timers run:
  // an immediate withdrawal must flush the ghost, and the (longer) new
  // path follows at MRAI expiry.
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(
        2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
    speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  });
  sim_.run();
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(1));
  EXPECT_FALSE(msgs[1].msg.is_withdrawal());
  EXPECT_EQ(*msgs[1].msg.path, test::path_of({0, 2, 8, 9}));
  EXPECT_EQ(msgs[1].at, sim::SimTime::seconds(30));
  EXPECT_GT(speaker_->counters().ghost_flushes, 0u);
}

TEST_F(EnhancementTest, NoGhostFlushOnImprovement) {
  build(Enhancement::kGhostFlushing);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  });
  sim_.run();
  // Improvement: no flush; just the held announce at expiry.
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_FALSE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(speaker_->counters().ghost_flushes, 0u);
}

TEST_F(EnhancementTest, NoGhostFlushWhenTimerIdle) {
  build(Enhancement::kGhostFlushing);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sim_.run();  // let all timers expire
  sent_.clear();
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  // Timer idle: the longer path is announced immediately; no flush needed.
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_FALSE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(speaker_->counters().ghost_flushes, 0u);
}

TEST_F(EnhancementTest, StandardBgpDoesNotFlush) {
  build(Enhancement::kStandard);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  sim_.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker_->handle_update(
        2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
    speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  });
  sim_.run();
  // Standard BGP: peers keep the ghost (0 1 9) until the held announce at
  // t=30. Exactly one message, no early withdrawal.
  const auto msgs = to(3);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_FALSE(msgs[0].msg.is_withdrawal());
  EXPECT_EQ(msgs[0].at, sim::SimTime::seconds(30));
}

// ---------------- backup caution (§3.3 future work) ----------------

TEST_F(EnhancementTest, CautionDefersWorseBackup) {
  BgpConfig c;
  c.mrai = sim::SimTime::seconds(30);
  c.jitter_lo = 1.0;
  c.jitter_hi = 1.0;
  c.backup_caution = sim::SimTime::seconds(10);
  speaker_.emplace(0, c, sim_, transport_, fib_, sim::Rng{1}, test::paths(),
                   ribs_);
  speaker_->set_peers({1, 2, 3, 4});

  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  ASSERT_EQ(*speaker_->best_path(kP), test::path_of({0, 1, 9}));

  // The good path dies at t=0; the longer backup is NOT adopted yet.
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  EXPECT_EQ(speaker_->best_path(kP), nullptr);
  EXPECT_FALSE(fib_.next_hop(kP).has_value());
  EXPECT_EQ(speaker_->counters().caution_holds, 1u);

  // After the caution window it is adopted.
  sim_.run_until(sim::SimTime::seconds(10));
  ASSERT_NE(speaker_->best_path(kP), nullptr);
  EXPECT_EQ(*speaker_->best_path(kP), test::path_of({0, 2, 8, 9}));
}

TEST_F(EnhancementTest, CautionAcceptsEqualOrBetterReplacementImmediately) {
  BgpConfig c;
  c.mrai = sim::SimTime::seconds(30);
  c.jitter_lo = 1.0;
  c.jitter_hi = 1.0;
  c.backup_caution = sim::SimTime::seconds(10);
  speaker_.emplace(0, c, sim_, transport_, fib_, sim::Rng{1}, test::paths(),
                   ribs_);
  speaker_->set_peers({1, 2, 3, 4});

  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  EXPECT_EQ(speaker_->best_path(kP), nullptr);  // holding

  // A same-length replacement arrives mid-window: adopted at once.
  sim_.schedule_at(sim::SimTime::seconds(2), [&] {
    speaker_->handle_update(3, UpdateMsg::announce(kP, test::path_of({3, 9})));
  });
  sim_.run_until(sim::SimTime::seconds(2));
  ASSERT_NE(speaker_->best_path(kP), nullptr);
  EXPECT_EQ(*speaker_->best_path(kP), test::path_of({0, 3, 9}));
}

TEST_F(EnhancementTest, ZeroCautionSwitchesImmediately) {
  build(Enhancement::kStandard);  // backup_caution defaults to zero
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  ASSERT_NE(speaker_->best_path(kP), nullptr);
  EXPECT_EQ(*speaker_->best_path(kP), test::path_of({0, 2, 8, 9}));
  EXPECT_EQ(speaker_->counters().caution_holds, 0u);
}

// ---------------- combined flags ----------------

TEST_F(EnhancementTest, CombinedFlagsCoexist) {
  // The config is flag-based, so combinations (e.g. the modern BGP draft's
  // WRATE together with SSLD) must behave sanely even though the paper
  // evaluates them separately.
  BgpConfig c;
  c.mrai = sim::SimTime::seconds(30);
  c.jitter_lo = 1.0;
  c.jitter_hi = 1.0;
  c.ssld = true;
  c.wrate = true;
  speaker_.emplace(0, c, sim_, transport_, fib_, sim::Rng{1}, test::paths(),
                   ribs_);
  speaker_->set_peers({1, 2, 3, 4});
  speaker_->set_hooks(Speaker::Hooks{
      .on_update_sent =
          [this](net::NodeId, net::NodeId to, const UpdateMsg& msg) {
            sent_.push_back(Sent{to, msg, sim_.now()});
          },
      .on_best_changed = nullptr,
  });

  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  sim_.run();
  sent_.clear();
  // Switch to a path through peer 1: SSLD converts the announce to a
  // withdrawal, and WRATE rate-limits that withdrawal like any update.
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const auto now_msgs = to(1);
  ASSERT_EQ(now_msgs.size(), 1u);
  EXPECT_TRUE(now_msgs[0].msg.is_withdrawal());  // timers idle: sent now
  sent_.clear();
  // A second change within the window is held even though it is a
  // withdrawal (WRATE) — and resolves to nothing once the route returns.
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sim_.run();
  EXPECT_TRUE(to(1).empty());
}

// ---------------- Assertion ----------------

TEST_F(EnhancementTest, AssertionPrunesOnWithdrawal) {
  build(Enhancement::kAssertion);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 1, 9})));
  // Withdrawal from 1 invalidates 2's path through 1: no backup remains.
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  EXPECT_EQ(speaker_->best_path(kP), nullptr);
  EXPECT_EQ(speaker_->adj_route(kP, 2), nullptr);
  EXPECT_GT(speaker_->counters().assertion_removals, 0u);
}

TEST_F(EnhancementTest, StandardBgpPicksObsoleteBackup) {
  build(Enhancement::kStandard);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 1, 9})));
  speaker_->handle_update(1, UpdateMsg::withdraw(kP));
  // Standard BGP happily selects the obsolete (2 1 9) — the paper's loop
  // formation mechanism.
  const AsPath* loc = speaker_->best_path(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 2, 1, 9}));
}

TEST_F(EnhancementTest, AssertionPrunesInconsistentAnnounce) {
  build(Enhancement::kAssertion);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 1, 9})));
  // Peer 1 moves to a different (longer) route: 2's entry contradicts it.
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 3, 9})));
  EXPECT_EQ(speaker_->adj_route(kP, 2), nullptr);
  const AsPath* loc = speaker_->best_path(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 1, 3, 9}));
}

TEST_F(EnhancementTest, AssertionKeepsConsistentEntries) {
  build(Enhancement::kAssertion);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 1, 9})));
  // Re-announcing the same route prunes nothing.
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  EXPECT_NE(speaker_->adj_route(kP, 2), nullptr);
}

TEST_F(EnhancementTest, AssertionKeepsTransitRoutesOnSessionDown) {
  // A lost session withdraws the peer's own route and nothing else: the
  // route through 2 that transits 1 still describes 1's forwarding state.
  build(Enhancement::kAssertion);
  speaker_->handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_->handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 1, 9})));
  speaker_->handle_session(1, false);
  EXPECT_EQ(speaker_->adj_route(kP, 1), nullptr);
  ASSERT_NE(speaker_->adj_route(kP, 2), nullptr);
  ASSERT_NE(speaker_->best_path(kP), nullptr);
  EXPECT_EQ(*speaker_->best_path(kP), test::path_of({0, 2, 1, 9}));
  EXPECT_EQ(speaker_->counters().assertion_removals, 0u);
}

}  // namespace
}  // namespace bgpsim::bgp
