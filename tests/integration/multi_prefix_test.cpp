// Multi-prefix scenarios: the machinery is keyed by prefix throughout, so
// several destinations coexist on one network; events on one prefix must
// not disturb another.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/network.hpp"
#include "fwd/engine.hpp"
#include "metrics/loop_detector.hpp"
#include "snap/codec.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim {
namespace {

class MultiPrefixTest : public ::testing::Test {
 protected:
  MultiPrefixTest()
      : topo_{topo::make_ring(6)},
        network_{sim_, topo_, config(), net::ProcessingDelay{
                                            sim::SimTime::millis(1),
                                            sim::SimTime::millis(1)},
                 sim::Rng{9}, test::paths(), 2},
        // prefix 0 lives at node 0, prefix 1 at node 3
        plane_{sim_, topo_, network_.fibs(),
               fwd::DataPlaneOptions{.destinations = {0, 3}}} {}

  static bgp::BgpConfig config() {
    bgp::BgpConfig c;
    c.jitter_lo = 1.0;
    c.jitter_hi = 1.0;
    return c;
  }

  void converge_both() {
    sim_.schedule_at(sim::SimTime::zero(), [&] {
      network_.originate(0, 0);
      network_.originate(3, 1);
    });
    sim_.run();
    ASSERT_FALSE(network_.busy());
  }

  sim::Simulator sim_;
  net::Topology topo_;
  bgp::BgpNetwork network_;
  fwd::DataPlane plane_;
};

TEST_F(MultiPrefixTest, BothPrefixesConvergeIndependently) {
  converge_both();
  // Node 1: prefix 0 direct, prefix 1 via 2.
  EXPECT_EQ(*network_.speaker(1).best_path(0), test::path_of({1, 0}));
  EXPECT_EQ(*network_.speaker(1).best_path(1), test::path_of({1, 2, 3}));
  EXPECT_EQ(network_.fibs()[1].next_hop(0), 0u);
  EXPECT_EQ(network_.fibs()[1].next_hop(1), 2u);
}

TEST_F(MultiPrefixTest, DataPlaneRoutesPerPrefix) {
  converge_both();
  plane_.inject(fwd::Injection{.source = 5, .prefix = 0});  // toward node 0
  plane_.inject(fwd::Injection{.source = 5, .prefix = 1});  // toward node 3
  sim_.run();
  EXPECT_EQ(plane_.counters().delivered, 2u);
  EXPECT_EQ(plane_.counters().injected, 2u);
}

TEST_F(MultiPrefixTest, TdownOnOnePrefixLeavesOtherIntact) {
  converge_both();
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60),
                   [&] { network_.speaker(0).withdraw_origin(0); });
  sim_.run();
  ASSERT_FALSE(network_.busy());
  for (net::NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(network_.speaker(v).best_path(0), nullptr) << "node " << v;
    if (v != 3) {
      ASSERT_NE(network_.speaker(v).best_path(1), nullptr)
          << "node " << v;
      EXPECT_EQ(network_.speaker(v).best_path(1)->origin(), 3u);
    }
  }
  // Data plane: prefix 0 black-holes, prefix 1 still delivers.
  plane_.inject(fwd::Injection{.source = 5, .prefix = 0});
  plane_.inject(fwd::Injection{.source = 5, .prefix = 1});
  sim_.run();
  EXPECT_EQ(plane_.counters().delivered, 1u);
  EXPECT_EQ(plane_.counters().no_route, 1u);
}

TEST_F(MultiPrefixTest, PerPrefixMraiTimersAreIndependent) {
  converge_both();
  // A flap on prefix 0 must not delay prefix-1 advertisements: MRAI is
  // keyed per (peer, prefix).
  auto& origin0 = network_.speaker(0);
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60), [&] {
    origin0.withdraw_origin(0);
    origin0.originate(0);  // immediate re-announce: held by prefix-0 timers
  });
  std::uint64_t best_changes_p1 = 0;
  network_.set_hooks(bgp::Speaker::Hooks{
      .on_update_sent = nullptr,
      .on_best_changed =
          [&](net::NodeId, net::Prefix prefix,
              const std::optional<bgp::AsPath>&) {
            if (prefix == 1) ++best_changes_p1;
          },
  });
  sim_.run();
  ASSERT_FALSE(network_.busy());
  EXPECT_EQ(best_changes_p1, 0u);  // prefix 1 untouched by the flap
  // Prefix 0 is reachable again everywhere.
  for (net::NodeId v = 1; v < 6; ++v) {
    EXPECT_NE(network_.speaker(v).best_path(0), nullptr) << "node " << v;
  }
}

TEST_F(MultiPrefixTest, LoopDetectorsTrackPrefixesSeparately) {
  converge_both();
  std::vector<metrics::LoopDetector> dets(
      2, metrics::LoopDetector{topo_.node_count()});
  // attach() routes each change to its prefix's detector: the one
  // watching prefix 1 sees no change when prefix 0 flaps.
  metrics::LoopDetector::attach(sim_, network_.fibs(), dets);
  sim_.schedule_at(sim_.now() + sim::SimTime::seconds(60),
                   [&] { network_.speaker(0).withdraw_origin(0); });
  sim_.run();
  dets[1].finalize(sim_.now());
  EXPECT_TRUE(dets[1].records().empty());
}

TEST(MultiPrefixAssertion, TlongKeepsAnotherOriginsRouteThroughTheDestination) {
  // Origin 3 hangs off the destination 0, which also reaches 1 and 2; 1
  // and 2 are linked. Node 1 learns prefix 1 as (0 3) from 0 and as
  // (2 0 3) from 2. Failing link 0-1 (a Tlong at the destination) withdraws
  // 0's routes at 1. The route from 2 transits 0 but is still valid, and 2
  // never re-announces it, so Assertion must keep it.
  net::Topology topo{4};
  topo.add_link(0, 3);
  const net::LinkId failed = topo.add_link(0, 1);
  topo.add_link(0, 2);
  topo.add_link(1, 2);
  bgp::BgpConfig config;
  config.jitter_lo = 1.0;
  config.jitter_hi = 1.0;
  config.assertion = true;
  sim::Simulator sim;
  bgp::BgpNetwork network{sim, topo, config,
                          net::ProcessingDelay{sim::SimTime::millis(1),
                                               sim::SimTime::millis(1)},
                          sim::Rng{9}, test::paths(), 2};
  sim.schedule_at(sim::SimTime::zero(), [&] {
    network.originate(0, 0);
    network.originate(3, 1);
  });
  sim.run();
  ASSERT_EQ(*network.speaker(1).best_path(1), test::path_of({1, 0, 3}));
  ASSERT_NE(network.speaker(1).adj_route(1, 2), nullptr);

  sim.schedule_at(sim.now() + sim::SimTime::seconds(5),
                  [&] { network.inject_link_failure(failed); });
  sim.run();
  ASSERT_FALSE(network.busy());
  ASSERT_NE(network.speaker(1).best_path(1), nullptr);
  EXPECT_EQ(*network.speaker(1).best_path(1), test::path_of({1, 2, 0, 3}));
  ASSERT_NE(network.speaker(1).best_path(0), nullptr);
  EXPECT_EQ(*network.speaker(1).best_path(0), test::path_of({1, 2, 0}));
  EXPECT_EQ(network.fibs()[1].next_hop(1), 2u);
}

// ---- the network checkpoint: P is part of it, and bounds every prefix ----

bgp::BgpConfig quiet_config() {
  bgp::BgpConfig c;
  c.jitter_lo = 1.0;
  c.jitter_hi = 1.0;
  return c;
}

TEST(BgpNetworkCodec, RestoreRequiresTheSavedPrefixCount) {
  sim::Simulator sim;
  net::Topology topo = topo::make_ring(3);
  const net::ProcessingDelay delay{sim::SimTime::millis(1),
                                   sim::SimTime::millis(1)};
  bgp::BgpNetwork two{sim, topo, quiet_config(), delay, sim::Rng{1},
                      test::paths(), 2};
  snap::Writer w;
  two.save_state(w);

  bgp::BgpNetwork also_two{sim, topo, quiet_config(), delay, sim::Rng{2},
                           test::paths(), 2};
  snap::Reader same{w.bytes()};
  also_two.restore_state(same);
  same.finish();

  for (const std::uint32_t prefixes : {1u, 3u}) {
    bgp::BgpNetwork other{sim, topo, quiet_config(), delay, sim::Rng{2},
                          test::paths(), prefixes};
    snap::Reader r{w.bytes()};
    EXPECT_THROW(other.restore_state(r), snap::FormatError)
        << prefixes << " prefixes";
  }
}

/// A whole one-prefix network checkpoint on the 3-ring whose only state is
/// one update queued at node 0: `prefix`, withdrawn, or announcing the
/// path `ref` names, as a single message (tag 0) or a batch of one (tag
/// 1). Every other queue, speaker and FIB is empty.
std::vector<std::uint8_t> queued_update_checkpoint(
    bgp::BgpNetwork& network, std::uint8_t tag, net::Prefix prefix,
    std::optional<std::uint32_t> ref) {
  snap::Writer w;
  test::paths().save(w);
  network.transport().save_state(w);
  w.u64(1);  // the network's prefix count
  for (net::NodeId node = 0; node < 3; ++node) {
    snap::write_rng(w, sim::Rng{1});
    w.b(false);  // not busy
    w.u64(node == 0 ? 1 : 0);  // queued items
    if (node == 0) {
      w.b(false);  // a message, not a session event
      w.u32(1);    // from
      w.u32(0);    // to
      w.u8(tag);
      if (tag == 1) w.u64(1);  // a batch of one
      w.u32(prefix);
      w.b(ref.has_value());
      if (ref) w.u32(*ref);
    }
    snap::write_rng(w, sim::Rng{1});  // the speaker
    w.u64(2);                         // its ring neighbours
    w.u32((node + 1) % 3 < (node + 2) % 3 ? (node + 1) % 3 : (node + 2) % 3);
    w.u32((node + 1) % 3 < (node + 2) % 3 ? (node + 2) % 3 : (node + 1) % 3);
    for (int section = 0; section < 6; ++section) w.u64(0);
    for (int counter = 0; counter < 9; ++counter) w.u64(0);
    w.u64(0);  // an empty FIB
  }
  return std::move(w).take();
}

TEST(BgpNetworkCodec, RestoreRejectsAnInQueueUpdateAtOrAboveP) {
  // Node 0's processing queue holds one update for prefix 1 of a
  // one-prefix network, as a single message (tag 0) and inside a batch
  // (tag 1). The prefix must fail as it is read, before anything is sized
  // by it.
  sim::Simulator sim;
  net::Topology topo = topo::make_ring(3);
  bgp::BgpNetwork network{sim, topo, quiet_config(),
                          net::ProcessingDelay{sim::SimTime::millis(1),
                                               sim::SimTime::millis(1)},
                          sim::Rng{1}, test::paths(), 1};
  for (const std::uint8_t tag : {std::uint8_t{0}, std::uint8_t{1}}) {
    const auto bytes = queued_update_checkpoint(network, tag, 1, std::nullopt);
    snap::Reader r{bytes};
    try {
      network.restore_state(r);
      ADD_FAILURE() << "tag " << int{tag} << ": restore accepted prefix 1";
    } catch (const snap::FormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("prefix 1 is out of range (limit 1)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BgpNetworkCodec, RestoreRejectsAnInQueueUpdateRefBeyondTheArena) {
  // The same queued update for prefix 0, announcing a path by ref: a ref
  // within the arena section restores, one past its last node does not.
  sim::Simulator sim;
  net::Topology topo = topo::make_ring(3);
  bgp::BgpNetwork network{sim, topo, quiet_config(),
                          net::ProcessingDelay{sim::SimTime::millis(1),
                                               sim::SimTime::millis(1)},
                          sim::Rng{1}, test::paths(), 1};
  (void)test::path_of({1, 0});
  const auto nodes = static_cast<std::uint32_t>(test::paths().size());
  for (const std::uint8_t tag : {std::uint8_t{0}, std::uint8_t{1}}) {
    const auto ok = queued_update_checkpoint(network, tag, 0, nodes);
    snap::Reader accepted{ok};
    EXPECT_NO_THROW(network.restore_state(accepted)) << "tag " << int{tag};
    const auto bad = queued_update_checkpoint(network, tag, 0, nodes + 1);
    snap::Reader r{bad};
    try {
      network.restore_state(r);
      ADD_FAILURE() << "tag " << int{tag} << ": restore accepted ref "
                    << nodes + 1;
    } catch (const snap::FormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("path ref"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace bgpsim
