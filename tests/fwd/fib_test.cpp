#include "fwd/fib.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "metrics/loop_detector.hpp"
#include "sim/scheduler.hpp"

namespace bgpsim::fwd {
namespace {

TEST(Fib, EmptyHasNoRoute) {
  Fib fib;
  EXPECT_FALSE(fib.next_hop(0).has_value());
  EXPECT_EQ(fib.route_count(), 0u);
}

TEST(Fib, SetAndGet) {
  Fib fib;
  EXPECT_TRUE(fib.set_next_hop(0, 5));
  EXPECT_EQ(fib.next_hop(0), 5u);
  EXPECT_EQ(fib.route_count(), 1u);
}

TEST(Fib, SetSameValueReportsNoChange) {
  Fib fib;
  fib.set_next_hop(0, 5);
  EXPECT_FALSE(fib.set_next_hop(0, 5));
  EXPECT_TRUE(fib.set_next_hop(0, 6));
  EXPECT_EQ(fib.next_hop(0), 6u);
}

TEST(Fib, ClearRoute) {
  Fib fib;
  fib.set_next_hop(0, 5);
  EXPECT_TRUE(fib.clear_route(0));
  EXPECT_FALSE(fib.next_hop(0).has_value());
  EXPECT_FALSE(fib.clear_route(0));  // already gone
}

TEST(Fib, PrefixesAreIndependent) {
  Fib fib;
  fib.set_next_hop(0, 5);
  fib.set_next_hop(1, 7);
  EXPECT_EQ(fib.next_hop(0), 5u);
  EXPECT_EQ(fib.next_hop(1), 7u);
  fib.clear_route(0);
  EXPECT_EQ(fib.next_hop(1), 7u);
}

struct Change {
  net::Prefix prefix;
  std::optional<net::NodeId> previous;
  std::optional<net::NodeId> current;
};

TEST(Fib, ObserverSeesTransitions) {
  Fib fib;
  std::vector<Change> changes;
  fib.add_observer([&](net::Prefix p, std::optional<net::NodeId> prev,
                       std::optional<net::NodeId> now) {
    changes.push_back(Change{p, prev, now});
  });

  fib.set_next_hop(0, 5);   // install
  fib.set_next_hop(0, 5);   // no-op: no callback
  fib.set_next_hop(0, 6);   // replace
  fib.clear_route(0);       // remove

  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0].previous, std::nullopt);
  EXPECT_EQ(changes[0].current, 5u);
  EXPECT_EQ(changes[1].previous, 5u);
  EXPECT_EQ(changes[1].current, 6u);
  EXPECT_EQ(changes[2].previous, 6u);
  EXPECT_EQ(changes[2].current, std::nullopt);
}

TEST(Fib, ObserverRegisteredBeforeDetectorAttachSeesEveryChange) {
  // The data plane subscribes when it is constructed, before the loop
  // detector attaches: attaching must add to the observers, not replace
  // them.
  sim::Simulator sim;
  std::vector<Fib> fibs(3);
  std::vector<std::pair<std::size_t, Change>> early;
  for (std::size_t node = 0; node < fibs.size(); ++node) {
    fibs[node].add_observer([&early, node](net::Prefix p,
                                           std::optional<net::NodeId> prev,
                                           std::optional<net::NodeId> now) {
      early.emplace_back(node, Change{p, prev, now});
    });
  }
  metrics::LoopDetector detector{fibs.size()};
  detector.attach(sim, fibs, 0);

  fibs[1].set_next_hop(0, 2);
  fibs[2].set_next_hop(0, 1);  // closes a 1 <-> 2 loop
  fibs[2].set_next_hop(1, 0);  // another prefix: the detector ignores it
  fibs[1].clear_route(0);      // resolves the loop

  ASSERT_EQ(early.size(), 4u);
  EXPECT_EQ(early[0].first, 1u);
  EXPECT_EQ(early[1].first, 2u);
  EXPECT_EQ(early[2].second.prefix, 1u);
  EXPECT_EQ(early[3].first, 1u);
  EXPECT_EQ(early[3].second.previous, 2u);
  EXPECT_EQ(early[3].second.current, std::nullopt);
  // ...and the detector, attached second, saw the loop form and resolve.
  detector.finalize(sim.now());
  ASSERT_EQ(detector.records().size(), 1u);
  EXPECT_TRUE(detector.records()[0].resolved_at.has_value());
}

}  // namespace
}  // namespace bgpsim::fwd
