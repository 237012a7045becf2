// MRAI jitter bounds: every held advertisement goes out within
// [jitter_lo, jitter_hi] x MRAI of the previous one.
#include <gtest/gtest.h>

#include <vector>

#include "bgp/speaker.hpp"
#include "topo/generators.hpp"
#include "support/paths.hpp"

namespace bgpsim::bgp {
namespace {

constexpr net::Prefix kP = 0;

TEST(MraiJitter, HeldSendWithinJitterWindow) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulator sim;
    net::Topology topo = topo::make_star(3);
    net::Transport transport{sim, topo};
    fwd::Fib fib;
    BgpConfig c;
    c.mrai = sim::SimTime::seconds(30);
    c.jitter_lo = 0.75;
    c.jitter_hi = 1.0;
    rib::LocalRibs ribs{1, 1};
    Speaker speaker{0, c, sim, transport, fib, sim::Rng{seed}, test::paths(),
                    ribs};
    speaker.set_peers({1, 2});

    std::vector<std::pair<net::NodeId, sim::SimTime>> sends;
    speaker.set_hooks(Speaker::Hooks{
        .on_update_sent =
            [&](net::NodeId, net::NodeId to, const UpdateMsg& msg) {
              if (!msg.is_withdrawal()) sends.emplace_back(to, sim.now());
            },
        .on_best_changed = nullptr,
    });

    // First announce at t=0 starts the timers; an improvement at t=1 is
    // held and must go out within [0.75, 1.0] x 30 s of the first send.
    speaker.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
    sim.schedule_at(sim::SimTime::seconds(1), [&] {
      speaker.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
    });
    sim.run();

    // Per peer: exactly two announces; gap within the jitter window.
    for (const net::NodeId peer : {1u, 2u}) {
      std::vector<sim::SimTime> at;
      for (const auto& [to, when] : sends) {
        if (to == peer) at.push_back(when);
      }
      ASSERT_EQ(at.size(), 2u) << "peer " << peer << " seed " << seed;
      const double gap = (at[1] - at[0]).as_seconds();
      EXPECT_GE(gap, 0.75 * 30.0) << "seed " << seed;
      EXPECT_LE(gap, 1.0 * 30.0 + 1e-9) << "seed " << seed;
    }
  }
}

TEST(MraiJitter, TimersDifferAcrossPeers) {
  // Jitter is drawn per timer start, so the two peers' held sends land at
  // different times (for almost every seed; check one known-good seed).
  sim::Simulator sim;
  net::Topology topo = topo::make_star(3);
  net::Transport transport{sim, topo};
  fwd::Fib fib;
  BgpConfig c;
  c.mrai = sim::SimTime::seconds(30);
  rib::LocalRibs ribs{1, 1};
  Speaker speaker{0, c, sim, transport, fib, sim::Rng{4}, test::paths(), ribs};
  speaker.set_peers({1, 2});

  std::vector<std::pair<net::NodeId, sim::SimTime>> sends;
  speaker.set_hooks(Speaker::Hooks{
      .on_update_sent =
          [&](net::NodeId, net::NodeId to, const UpdateMsg&) {
            sends.emplace_back(to, sim.now());
          },
      .on_best_changed = nullptr,
  });
  speaker.handle_update(1, UpdateMsg::announce(kP, test::path_of({1, 8, 9})));
  sim.schedule_at(sim::SimTime::seconds(1), [&] {
    speaker.handle_update(2, UpdateMsg::announce(kP, test::path_of({2, 9})));
  });
  sim.run();

  sim::SimTime held_1, held_2;
  for (const auto& [to, when] : sends) {
    if (when > sim::SimTime::seconds(1)) {
      (to == 1 ? held_1 : held_2) = when;
    }
  }
  EXPECT_NE(held_1, held_2);
}

}  // namespace
}  // namespace bgpsim::bgp
