// Unit tests for the distance-vector baseline speaker.
#include "dv/speaker.hpp"
#include "dv/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topo/generators.hpp"

namespace bgpsim::dv {
namespace {

constexpr net::Prefix kP = 0;

struct Sent {
  net::NodeId to;
  DvUpdate update;
  sim::SimTime at;
};

class DvSpeakerTest : public ::testing::Test {
 protected:
  DvSpeakerTest()
      : topo_{topo::make_star(5)}, transport_{sim_, topo_} {
    rebuild(default_config());
  }

  static DvConfig default_config() {
    DvConfig c;
    c.periodic = sim::SimTime::zero();  // triggered-only: sim.run() drains
    c.triggered_delay_lo = sim::SimTime::seconds(1);  // deterministic
    c.triggered_delay_hi = sim::SimTime::seconds(1);
    return c;
  }

  void rebuild(DvConfig config) {
    speaker_.emplace(0, config, sim_, transport_, fib_, sim::Rng{1});
    speaker_->set_peers({1, 2, 3, 4});
    speaker_->set_hooks(DvSpeaker::Hooks{
        .on_update_sent =
            [this](net::NodeId, net::NodeId to, const DvUpdate& u) {
              sent_.push_back(Sent{to, u, sim_.now()});
            },
        .on_route_changed = nullptr,
    });
  }

  /// Metric advertised to `peer` for kP in the most recent update, or
  /// nullopt when omitted.
  std::optional<int> advertised_to(net::NodeId peer) const {
    for (auto it = sent_.rbegin(); it != sent_.rend(); ++it) {
      if (it->to != peer) continue;
      for (const auto& [prefix, metric] : it->update.routes) {
        if (prefix == kP) return metric;
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Transport transport_;
  fwd::Fib fib_;
  std::optional<DvSpeaker> speaker_;
  std::vector<Sent> sent_;
};

TEST_F(DvSpeakerTest, OriginationAdvertisesMetricZero) {
  speaker_->originate(kP);
  EXPECT_EQ(speaker_->metric(kP), 0);
  sim_.run();
  EXPECT_EQ(advertised_to(1), 0);
  EXPECT_EQ(advertised_to(3), 0);
}

TEST_F(DvSpeakerTest, AdoptsBestNeighborMetric) {
  speaker_->handle_update(1, DvUpdate{{{kP, 3}}});
  EXPECT_EQ(speaker_->metric(kP), 4);
  EXPECT_EQ(speaker_->next_hop(kP), 1u);
  speaker_->handle_update(2, DvUpdate{{{kP, 1}}});
  EXPECT_EQ(speaker_->metric(kP), 2);
  EXPECT_EQ(speaker_->next_hop(kP), 2u);
  // A worse offer from a third party is ignored.
  speaker_->handle_update(3, DvUpdate{{{kP, 5}}});
  EXPECT_EQ(speaker_->metric(kP), 2);
  EXPECT_EQ(fib_.next_hop(kP), 2u);
}

TEST_F(DvSpeakerTest, NextHopUpdatesAreAuthoritative) {
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  EXPECT_EQ(speaker_->metric(kP), 2);
  // The current next hop reports a *worse* metric: adopted anyway — the
  // first step of counting to infinity.
  speaker_->handle_update(1, DvUpdate{{{kP, 5}}});
  EXPECT_EQ(speaker_->metric(kP), 6);
  EXPECT_EQ(speaker_->next_hop(kP), 1u);
}

TEST_F(DvSpeakerTest, InfinityFromNextHopInvalidatesRoute) {
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  speaker_->handle_update(1, DvUpdate{{{kP, 16}}});
  EXPECT_FALSE(speaker_->metric(kP).has_value());
  EXPECT_FALSE(fib_.next_hop(kP).has_value());
}

TEST_F(DvSpeakerTest, MetricsClampAtInfinity) {
  speaker_->handle_update(1, DvUpdate{{{kP, 15}}});
  // 15 + 1 == infinity: not a usable route.
  EXPECT_FALSE(speaker_->metric(kP).has_value());
}

TEST_F(DvSpeakerTest, PoisonReverseAdvertisesInfinityToNextHop) {
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  sim_.run();
  EXPECT_EQ(advertised_to(1), 16);  // poisoned back to the next hop
  EXPECT_EQ(advertised_to(2), 2);   // real metric elsewhere
  EXPECT_GT(speaker_->counters().poisoned_advertisements, 0u);
}

TEST_F(DvSpeakerTest, PlainSplitHorizonOmitsRoute) {
  DvConfig c = default_config();
  c.poison_reverse = false;
  rebuild(c);
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  sim_.run();
  EXPECT_FALSE(advertised_to(1).has_value());
  EXPECT_EQ(advertised_to(2), 2);
}

TEST_F(DvSpeakerTest, NoHorizonEchoesRouteBack) {
  DvConfig c = default_config();
  c.split_horizon = false;
  rebuild(c);
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  sim_.run();
  // Without split horizon the route goes back to its next hop — the
  // 2-node counting-to-infinity enabler.
  EXPECT_EQ(advertised_to(1), 2);
}

TEST_F(DvSpeakerTest, TriggeredUpdatesBatch) {
  speaker_->handle_update(1, DvUpdate{{{kP, 4}}});
  speaker_->handle_update(2, DvUpdate{{{kP, 1}}});  // within the window
  sim_.run();
  // One triggered update per peer, carrying only the final state.
  std::size_t to3 = 0;
  for (const auto& s : sent_) {
    if (s.to == 3) ++to3;
  }
  EXPECT_EQ(to3, 1u);
  EXPECT_EQ(advertised_to(3), 2);
  EXPECT_EQ(sent_.front().at, sim::SimTime::seconds(1));
}

TEST_F(DvSpeakerTest, WithdrawOriginPoisonsRoute) {
  speaker_->originate(kP);
  sim_.run();
  sent_.clear();
  speaker_->withdraw_origin(kP);
  EXPECT_FALSE(speaker_->metric(kP).has_value());
  sim_.run();
  EXPECT_EQ(advertised_to(1), 16);  // route poisoning propagates
}

TEST_F(DvSpeakerTest, SessionDownInvalidatesRoutesViaPeer) {
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  speaker_->handle_session(1, false);
  EXPECT_FALSE(speaker_->metric(kP).has_value());
  EXPECT_FALSE(fib_.next_hop(kP).has_value());
}

TEST_F(DvSpeakerTest, OriginIgnoresLearnedRoutes) {
  speaker_->originate(kP);
  speaker_->handle_update(1, DvUpdate{{{kP, 1}}});
  EXPECT_EQ(speaker_->metric(kP), 0);
  EXPECT_FALSE(speaker_->next_hop(kP).has_value());
}

TEST(DvUpdateCodec, RoundTripsAndRejectsAHugeRouteCount) {
  const DvUpdate in{{{0, 3}, {2, 16}}};
  snap::Writer w;
  save_dv_update(w, in);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  snap::Reader r{bytes};
  EXPECT_EQ(load_dv_update(r).routes, in.routes);
  r.finish();
  bytes[5] = 1;  // 2^40 routes
  snap::Reader huge{bytes};
  EXPECT_THROW((void)load_dv_update(huge), snap::FormatError);
}

}  // namespace
}  // namespace bgpsim::dv
