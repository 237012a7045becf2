#include "fwd/fib.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "metrics/loop_detector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "snap/codec.hpp"

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
  metrics::LoopDetector::attach(sim, fibs, {&detector, 1});

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

/// The encoding the old sorted-map table wrote: count, then (prefix, hop)
/// ascending by prefix.
std::vector<std::uint8_t> sorted_bytes(
    const std::map<net::Prefix, net::NodeId>& table) {
  snap::Writer w;
  w.u64(table.size());
  for (const auto& [prefix, hop] : table) {
    w.u32(prefix);
    w.u32(hop);
  }
  return std::move(w).take();
}

std::vector<std::uint8_t> saved(const Fib& fib) {
  snap::Writer w;
  fib.save_state(w);
  return std::move(w).take();
}

TEST(FibPlane, SaveBytesMatchSortedTableOverRandomHistory) {
  Fib fib;
  std::map<net::Prefix, net::NodeId> model;
  sim::Rng rng{77};
  for (int step = 0; step < 3000; ++step) {
    const auto prefix = static_cast<net::Prefix>(rng.next_below(64));
    if (rng.next_below(3) == 0) {
      EXPECT_EQ(fib.clear_route(prefix), model.erase(prefix) == 1);
    } else {
      const auto hop = static_cast<net::NodeId>(rng.next_below(5));
      const auto it = model.find(prefix);
      const bool changes = it == model.end() || it->second != hop;
      EXPECT_EQ(fib.set_next_hop(prefix, hop), changes);
      model[prefix] = hop;
    }
    ASSERT_EQ(fib.route_count(), model.size());
    ASSERT_EQ(saved(fib), sorted_bytes(model)) << "step " << step;
  }
}

TEST(FibPlane, RestoreNotifiesInTheSortedTablesOrder) {
  // Current {1->4, 3->2, 9->7, 12->1}; checkpoint {3->2, 5->6, 9->8}.
  // The sorted-map restore cleared stale prefixes ascending (1, 12), then
  // installed the checkpoint ascending (5 new, 9 replaced; 3 unchanged).
  Fib fib;
  for (const auto& [p, h] : std::map<net::Prefix, net::NodeId>{
           {1, 4}, {3, 2}, {9, 7}, {12, 1}}) {
    fib.set_next_hop(p, h);
  }
  std::vector<Change> changes;
  fib.add_observer([&](net::Prefix p, std::optional<net::NodeId> prev,
                       std::optional<net::NodeId> now) {
    changes.push_back(Change{p, prev, now});
  });
  // Written unsorted with a repeat: the last hop for a prefix wins.
  snap::Writer w;
  w.u64(4);
  for (const auto& [p, h] : std::vector<std::pair<net::Prefix, net::NodeId>>{
           {9, 3}, {5, 6}, {3, 2}, {9, 8}}) {
    w.u32(p);
    w.u32(h);
  }
  snap::Reader r{w.bytes()};
  fib.restore_state(r, 13);
  r.finish();

  ASSERT_EQ(changes.size(), 4u);
  const std::vector<std::tuple<net::Prefix, std::optional<net::NodeId>,
                               std::optional<net::NodeId>>>
      want{{1, 4, std::nullopt},
           {12, 1, std::nullopt},
           {5, std::nullopt, 6},
           {9, 7, 8}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(changes[i].prefix, std::get<0>(want[i])) << i;
    EXPECT_EQ(changes[i].previous, std::get<1>(want[i])) << i;
    EXPECT_EQ(changes[i].current, std::get<2>(want[i])) << i;
  }
  EXPECT_EQ(saved(fib), sorted_bytes({{3, 2}, {5, 6}, {9, 8}}));

  // Restoring the state it already holds notifies nobody.
  changes.clear();
  const std::vector<std::uint8_t> same = saved(fib);
  snap::Reader again{same};
  fib.restore_state(again, 13);
  EXPECT_TRUE(changes.empty());
}

TEST(FibPlane, RestoreRejectsOutOfRangeEntriesBeforeChangingAnything) {
  Fib fib;
  fib.set_next_hop(2, 5);
  for (const auto& [prefix, hop] :
       std::vector<std::pair<net::Prefix, net::NodeId>>{
           {net::kMaxPrefixes, 1}, {4, net::kInvalidNode}}) {
    snap::Writer w;
    w.u64(1);
    w.u32(prefix);
    w.u32(hop);
    snap::Reader r{w.bytes()};
    EXPECT_THROW(fib.restore_state(r, net::kMaxPrefixes), snap::FormatError);
    EXPECT_EQ(fib.next_hop(2), 5u);
    EXPECT_EQ(fib.route_count(), 1u);
  }
}

TEST(FibPlane, RestoreRejectsAPrefixAtOrAboveItsOwnersCount) {
  // A FIB of a network that routes P prefixes holds none at or above P; a
  // record there must fail before it sizes the table.
  Fib fib;
  fib.set_next_hop(0, 5);
  for (const net::Prefix prefix : {net::Prefix{1}, net::kMaxPrefixes - 1}) {
    snap::Writer w;
    w.u64(1);
    w.u32(prefix);
    w.u32(3);
    snap::Reader r{w.bytes()};
    EXPECT_THROW(fib.restore_state(r, 1), snap::FormatError)
        << "prefix " << prefix;
    EXPECT_EQ(fib.next_hop(0), 5u);
    EXPECT_EQ(fib.route_count(), 1u);
  }
}

}  // namespace
}  // namespace bgpsim::fwd
