// Unit tests driving a single Speaker directly (no processing queues), with
// deterministic MRAI (jitter disabled) and a star topology around the
// speaker so transport delivery works.
#include "bgp/speaker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
                 test::paths(), ribs_} {
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
  rib::LocalRibs ribs_{1, 6};  // prefixes 0..5
  Speaker speaker_;
  std::vector<Sent> sent_;
};

TEST_F(SpeakerTest, AdoptsAnnouncedRouteAndReadvertises) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  const AsPath* loc = speaker_.best_path(kP);
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
  EXPECT_EQ(speaker_.best_path(kP), nullptr);
  EXPECT_EQ(speaker_.adj_route(kP, 1), nullptr);
  EXPECT_EQ(speaker_.counters().poison_reverse_discards, 1u);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(SpeakerTest, PoisonedAnnounceReplacesEarlierGoodRoute) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  sent_.clear();
  // Peer 1 now reports a path through us: acts as an implicit withdrawal.
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 0, 9})));
  EXPECT_EQ(speaker_.best_path(kP), nullptr);
  // We must retract our previous advertisement (withdrawals bypass MRAI).
  ASSERT_FALSE(sent_.empty());
  for (const auto& s : sent_) EXPECT_TRUE(s.msg.is_withdrawal());
}

TEST_F(SpeakerTest, PicksBetterRouteAmongPeers) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  const AsPath* loc = speaker_.best_path(kP);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(*loc, test::path_of({0, 2, 9}));
  EXPECT_EQ(fib_.next_hop(kP), 2u);
}

TEST_F(SpeakerTest, FallsBackOnWithdrawal) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  speaker_.handle_update(1, UpdateMsg::withdraw(kP));
  const AsPath* loc = speaker_.best_path(kP);
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
  ASSERT_NE(speaker_.best_path(kP), nullptr);
  EXPECT_EQ(*speaker_.best_path(kP), test::path_of({0}));
  EXPECT_TRUE(speaker_.originates(kP));
  EXPECT_EQ(sent_.size(), 4u);
  EXPECT_FALSE(fib_.next_hop(kP).has_value());  // local delivery
}

TEST_F(SpeakerTest, OriginPrefersOwnRouteOverLearned) {
  speaker_.originate(kP);
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  EXPECT_EQ(*speaker_.best_path(kP), test::path_of({0}));
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
  EXPECT_EQ(speaker_.best_path(kP), nullptr);
}

TEST_F(SpeakerTest, SessionDownDropsPeerRoutesAndReruns) {
  speaker_.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 9})));
  speaker_.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 8, 9})));
  sent_.clear();
  speaker_.handle_session(1, false);
  EXPECT_EQ(speaker_.adj_route(kP, 1), nullptr);
  EXPECT_EQ(*speaker_.best_path(kP), test::path_of({0, 2, 8, 9}));
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
  EXPECT_EQ(speaker_.best_path(kP), nullptr);
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

// ---- checkpoint decoding: every prefix below P, every peer a session ----

/// The checkpointed sections holding per-prefix records, in stream order.
enum class Section { kOrigins, kAdjIn, kBest, kMrai, kCaution, kAdjOut };

/// A whole speaker checkpoint with sessions to peers 1..4: `bad` holds the
/// one record `write` writes, and every other section is empty.
std::vector<std::uint8_t> checkpoint_with(
    Section bad, const std::function<void(snap::Writer&)>& write) {
  snap::Writer w;
  snap::write_rng(w, sim::Rng{1});
  w.u64(4);
  for (net::NodeId peer = 1; peer <= 4; ++peer) w.u32(peer);
  for (const Section section :
       {Section::kOrigins, Section::kAdjIn, Section::kBest, Section::kMrai,
        Section::kCaution, Section::kAdjOut}) {
    w.u64(section == bad ? 1 : 0);
    if (section == bad) write(w);
  }
  for (int counter = 0; counter < 9; ++counter) w.u64(0);
  return std::move(w).take();
}

TEST_F(SpeakerTest, RestoreRejectsAnOriginAtOrAboveP) {
  for (const net::Prefix prefix : {net::Prefix{6}, net::kMaxPrefixes - 1}) {
    const auto bytes = checkpoint_with(
        Section::kOrigins, [&](snap::Writer& w) { w.u32(prefix); });
    snap::Reader r{bytes};
    EXPECT_THROW(speaker_.restore_state(r), snap::FormatError)
        << "prefix " << prefix;
  }
}

TEST_F(SpeakerTest, RestoreRejectsACautionHoldAtOrAboveP) {
  for (const net::Prefix prefix : {net::Prefix{6}, net::kMaxPrefixes - 1}) {
    const auto bytes =
        checkpoint_with(Section::kCaution, [&](snap::Writer& w) {
          w.u32(prefix);
          w.u64(2);  // the lost path's length
        });
    snap::Reader r{bytes};
    EXPECT_THROW(speaker_.restore_state(r), snap::FormatError)
        << "prefix " << prefix;
  }
}

/// One Adj-RIB-Out record: `peer` was announced (0 9) for `prefix`.
std::function<void(snap::Writer&)> announced(net::NodeId peer,
                                             net::Prefix prefix) {
  return [peer, prefix](snap::Writer& w) {
    w.u32(peer);
    w.u32(prefix);
    w.u8(1);
    test::path_of({0, 9}).save(w);
  };
}

TEST_F(SpeakerTest, RestoreRejectsAnAdjRibOutEntryAtOrAboveP) {
  for (const net::Prefix prefix : {net::Prefix{6}, net::kMaxPrefixes - 1}) {
    const auto bytes = checkpoint_with(Section::kAdjOut, announced(1, prefix));
    snap::Reader r{bytes};
    EXPECT_THROW(speaker_.restore_state(r), snap::FormatError)
        << "prefix " << prefix;
  }
}

TEST_F(SpeakerTest, RestoreRejectsAnAdjRibOutRefBeyondTheArena) {
  const auto with_ref = [](std::uint32_t ref) {
    return checkpoint_with(Section::kAdjOut, [ref](snap::Writer& w) {
      w.u32(1);  // peer
      w.u32(0);  // prefix
      w.u8(1);   // announced
      w.u32(ref);
    });
  };
  const auto nodes = static_cast<std::uint32_t>(test::paths().size());
  const auto ok = with_ref(nodes);
  snap::Reader accepted{ok};
  EXPECT_NO_THROW(speaker_.restore_state(accepted));
  const auto bad = with_ref(nodes + 1);
  snap::Reader r{bad};
  EXPECT_THROW(speaker_.restore_state(r), snap::FormatError);
}

TEST_F(SpeakerTest, RestoreRejectsAnAdjRibOutEntryTowardANonPeer) {
  // Peer 1 holds a session; node 7 and the largest id do not.
  const auto ok = checkpoint_with(Section::kAdjOut, announced(1, 5));
  snap::Reader accepted{ok};
  EXPECT_NO_THROW(speaker_.restore_state(accepted));
  for (const net::NodeId peer : {net::NodeId{7}, net::kInvalidNode}) {
    const auto bytes = checkpoint_with(Section::kAdjOut, announced(peer, 0));
    snap::Reader r{bytes};
    EXPECT_THROW(speaker_.restore_state(r), snap::FormatError)
        << "peer " << peer;
  }
}

TEST_F(SpeakerTest, RestoreChecksAdjRibInAndMraiPeersAgainstItsSessions) {
  // The Adj-RIB-In and MRAI decoders see the restored session set: the
  // same record restores from session peer 1 and is refused from node 7,
  // which has none.
  sim_.schedule_at(sim::SimTime::seconds(1), [] {});
  sim_.run();  // seq 1 drawn, so a timer may carry it
  using Bytes = std::function<std::vector<std::uint8_t>(net::NodeId)>;
  const Bytes adj_in = [](net::NodeId peer) {
    return checkpoint_with(Section::kAdjIn, [peer](snap::Writer& w) {
      w.u32(0);  // prefix
      w.u64(1);  // one column entry
      w.u32(peer);
      test::path_of({peer, 9}).save(w);
    });
  };
  const Bytes mrai = [](net::NodeId peer) {
    return checkpoint_with(Section::kMrai, [peer](snap::Writer& w) {
      w.u32(peer);
      w.u32(0);
      w.i64(sim::SimTime::seconds(30).as_micros());
      w.u64(1);
      w.b(false);
    });
  };
  for (const Bytes& bytes_from : {adj_in, mrai}) {
    const auto ok = bytes_from(1);
    snap::Reader accepted{ok};
    EXPECT_NO_THROW(speaker_.restore_state(accepted));
    const auto bad = bytes_from(7);
    snap::Reader r{bad};
    EXPECT_THROW(speaker_.restore_state(r), snap::FormatError);
  }
}

// A multi-prefix batch applies every update, then runs one decision pass
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
  rib::LocalRibs ribs{1, 2};  // two prefixes: sends are staged per peer
  Speaker speaker{0, config, sim, transport, fib, sim::Rng{1}, test::paths(),
                  ribs};
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
