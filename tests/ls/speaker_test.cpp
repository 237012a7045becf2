// Unit tests for the link-state baseline speaker.
#include "ls/speaker.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topo/generators.hpp"

namespace bgpsim::ls {
namespace {

constexpr net::Prefix kP = 0;

class LsSpeakerTest : public ::testing::Test {
 protected:
  LsSpeakerTest() : topo_{topo::make_star(4)}, transport_{sim_, topo_} {
    LsConfig c;
    c.spf_delay_lo = sim::SimTime::millis(100);  // deterministic
    c.spf_delay_hi = sim::SimTime::millis(100);
    speaker_.emplace(0, c, sim_, transport_, fib_, sim::Rng{1});
    speaker_->set_peers({1, 2, 3});
    speaker_->set_hooks(LsSpeaker::Hooks{
        .on_lsa_sent =
            [this](net::NodeId, net::NodeId to, const Lsa& lsa) {
              sent_.emplace_back(to, lsa);
            },
        .on_route_changed = nullptr,
    });
  }

  Lsa make_lsa(net::NodeId origin, std::uint64_t seq,
               std::vector<net::NodeId> nbrs,
               std::vector<net::Prefix> prefixes = {}) {
    Lsa lsa;
    lsa.origin = origin;
    lsa.seq = seq;
    lsa.neighbors = std::move(nbrs);
    lsa.prefixes = std::move(prefixes);
    return lsa;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Transport transport_;
  fwd::Fib fib_;
  std::optional<LsSpeaker> speaker_;
  std::vector<std::pair<net::NodeId, Lsa>> sent_;
};

TEST_F(LsSpeakerTest, StartFloodsSelfLsaToAllPeers) {
  speaker_->start();
  EXPECT_EQ(sent_.size(), 3u);
  for (const auto& [to, lsa] : sent_) {
    EXPECT_EQ(lsa.origin, 0u);
    EXPECT_EQ(lsa.seq, 1u);
    EXPECT_EQ(lsa.neighbors, (std::vector<net::NodeId>{1, 2, 3}));
  }
}

TEST_F(LsSpeakerTest, NewLsaIsStoredAndForwarded) {
  speaker_->start();
  sent_.clear();
  speaker_->handle_lsa(1, make_lsa(1, 1, {0, 9}));
  ASSERT_NE(speaker_->lsdb_entry(1), nullptr);
  EXPECT_EQ(speaker_->lsdb_entry(1)->seq, 1u);
  // Forwarded to everyone except the sender.
  EXPECT_EQ(sent_.size(), 2u);
  for (const auto& [to, lsa] : sent_) {
    EXPECT_NE(to, 1u);
    EXPECT_EQ(lsa.origin, 1u);
  }
}

TEST_F(LsSpeakerTest, StaleLsaIsIgnored) {
  speaker_->start();
  speaker_->handle_lsa(1, make_lsa(1, 5, {0}));
  sent_.clear();
  speaker_->handle_lsa(2, make_lsa(1, 3, {0, 9}));  // older seq
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(speaker_->lsdb_entry(1)->seq, 5u);
  EXPECT_GT(speaker_->counters().lsas_ignored, 0u);
}

TEST_F(LsSpeakerTest, DuplicateLsaStopsFlooding) {
  speaker_->start();
  speaker_->handle_lsa(1, make_lsa(1, 5, {0}));
  sent_.clear();
  speaker_->handle_lsa(2, make_lsa(1, 5, {0}));  // same seq via other path
  EXPECT_TRUE(sent_.empty());
}

TEST_F(LsSpeakerTest, SpfInstallsRouteAfterDelay) {
  speaker_->start();
  // LSDB: 0-1 adjacency (two-way) and 1 hosts kP.
  speaker_->handle_lsa(1, make_lsa(1, 1, {0}, {kP}));
  EXPECT_FALSE(speaker_->quiescent());
  EXPECT_FALSE(fib_.next_hop(kP).has_value());  // not yet: SPF delayed
  sim_.run();
  EXPECT_EQ(fib_.next_hop(kP), 1u);
  EXPECT_GT(speaker_->counters().spf_runs, 0u);
}

TEST_F(LsSpeakerTest, TwoWayCheckRejectsHalfAdjacency) {
  speaker_->start();
  // Node 2 claims adjacency with 9, but 9's LSA (also known) does not
  // list 2: the link must not be used.
  speaker_->handle_lsa(2, make_lsa(2, 1, {0, 9}));
  speaker_->handle_lsa(2, make_lsa(9, 1, {}, {kP}));
  sim_.run();
  EXPECT_FALSE(fib_.next_hop(kP).has_value());
}

TEST_F(LsSpeakerTest, MultiHopRouteUsesFirstHop) {
  speaker_->start();
  // 0-1, 1-9, 9 hosts kP.
  speaker_->handle_lsa(1, make_lsa(1, 1, {0, 9}));
  speaker_->handle_lsa(1, make_lsa(9, 1, {1}, {kP}));
  sim_.run();
  EXPECT_EQ(fib_.next_hop(kP), 1u);
}

TEST_F(LsSpeakerTest, WithdrawnPrefixClearsRoute) {
  speaker_->start();
  speaker_->handle_lsa(1, make_lsa(1, 1, {0}, {kP}));
  sim_.run();
  ASSERT_EQ(fib_.next_hop(kP), 1u);
  // New LSA from 1 without the prefix.
  speaker_->handle_lsa(1, make_lsa(1, 2, {0}));
  sim_.run();
  EXPECT_FALSE(fib_.next_hop(kP).has_value());
}

TEST_F(LsSpeakerTest, OwnPrefixDeliversLocally) {
  speaker_->originate(kP);
  sim_.run();
  EXPECT_FALSE(fib_.next_hop(kP).has_value());  // local delivery, no FIB
}

TEST_F(LsSpeakerTest, SessionDownReoriginates) {
  speaker_->start();
  sent_.clear();
  speaker_->handle_session(1, false);
  // New self-LSA with seq 2 flooded to remaining peers (2 and 3).
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].second.seq, 2u);
  EXPECT_EQ(sent_[0].second.neighbors, (std::vector<net::NodeId>{2, 3}));
}

TEST_F(LsSpeakerTest, SessionUpExchangesDatabase) {
  speaker_->start();
  speaker_->handle_lsa(2, make_lsa(9, 4, {2}));
  speaker_->handle_session(1, false);
  sent_.clear();
  speaker_->handle_session(1, true);
  // The new peer receives our whole LSDB (self + 9) plus the
  // re-originated self-LSA flood.
  std::size_t to_1 = 0;
  bool saw_9 = false;
  for (const auto& [to, lsa] : sent_) {
    if (to == 1) {
      ++to_1;
      if (lsa.origin == 9) saw_9 = true;
    }
  }
  EXPECT_GE(to_1, 2u);
  EXPECT_TRUE(saw_9);
}

TEST_F(LsSpeakerTest, SpfBatchesLsdbChanges) {
  speaker_->start();
  speaker_->handle_lsa(1, make_lsa(1, 1, {0}, {kP}));
  speaker_->handle_lsa(2, make_lsa(2, 1, {0}));
  const auto spf_before = speaker_->counters().spf_runs;
  sim_.run();
  // Both changes landed in one scheduled SPF (plus the one from start()).
  EXPECT_EQ(speaker_->counters().spf_runs, spf_before + 1);
}

TEST(LsaCodec, RoundTripsAndRejectsHugeCounts) {
  Lsa in;
  in.origin = 4;
  in.seq = 9;
  in.neighbors = {1, 2};
  in.prefixes = {0};
  snap::Writer w;
  save_lsa(w, in);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  snap::Reader r{bytes};
  const Lsa out = load_lsa(r);
  r.finish();
  EXPECT_EQ(out.neighbors, in.neighbors);
  EXPECT_EQ(out.prefixes, in.prefixes);
  // origin (4), seq (8), then the neighbour count; the prefix count
  // follows the two neighbours.
  for (const std::size_t at : {std::size_t{12}, std::size_t{12 + 8 + 2 * 4}}) {
    std::vector<std::uint8_t> bad = bytes;
    bad.at(at + 5) = 1;  // 2^40
    snap::Reader huge{bad};
    EXPECT_THROW((void)load_lsa(huge), snap::FormatError);
  }
}

}  // namespace
}  // namespace bgpsim::ls
