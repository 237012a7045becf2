// Operation-level heap-vs-rings differential suite: both hop-store
// backends replay identical scripted histories — injections, FIB edits,
// link flaps, same-tick bursts — and must agree on every observable: the
// ordered fate stream, the counters, the bridge-fire count (events_fired
// feeds the trial digests), and the serialized hop-store bytes. The ring
// store delivers loop-trapped cohorts speculatively, so the suite also
// checks the ledger at every control event: events fired, the
// simulator's seq counter (which orders the bridge against control
// events at the same microsecond), hop counts and the hop-store bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "fwd/engine.hpp"
#include "sim/random.hpp"
#include "snap/codec.hpp"
#include "topo/generators.hpp"
#include "topo/internet.hpp"

namespace bgpsim::fwd {
namespace {

struct FateRow {
  std::uint64_t id = 0;
  PacketFate fate = PacketFate::kDelivered;
  net::NodeId where = net::kInvalidNode;
  sim::SimTime when;
  int hops = 0;
  bool operator==(const FateRow&) const = default;
};

/// What a hook saw of the simulator when it ran: its clock, the events
/// fired and the seqs drawn so far, and how many records it got (one per
/// fate batch, zero for a send).
struct HookView {
  sim::SimTime now;
  std::uint64_t events_fired = 0;
  std::uint64_t event_seq = 0;
  std::size_t records = 0;
  bool operator==(const HookView&) const = default;
};

HookView view(const sim::Simulator& sim, std::size_t records) {
  return HookView{sim.now(), sim.events_fired(), sim.event_seq(), records};
}

class FateRecorder final : public FateSink {
 public:
  explicit FateRecorder(const sim::Simulator& sim) : sim_{sim} {}
  void on_fates(std::span<const FateRecord> batch) override {
    hooks.push_back(view(sim_, batch.size()));
    for (const FateRecord& r : batch) {
      rows.push_back(
          FateRow{r.packet.id, r.fate, r.where, r.when, r.packet.hops_taken});
    }
  }
  std::vector<FateRow> rows;
  /// One entry per fate batch and per source send, in call order.
  std::vector<HookView> hooks;

 private:
  const sim::Simulator& sim_;
};

/// One scripted control- or data-plane action, applied at `at`.
struct Op {
  enum class Kind : std::uint8_t {
    kInject,
    kSetRoute,
    kClearRoute,
    kLinkToggle,
    kStopSources
  };
  Kind kind = Kind::kInject;
  sim::SimTime at;
  net::NodeId a = 0;  // inject source / FIB node / link endpoint
  net::NodeId b = 0;  // FIB next hop / other link endpoint
  net::Prefix prefix = 0;
  int ttl = kDefaultTtl;
  bool up = true;
  /// Non-zero: the op is scheduled by a control event `defer` before
  /// `at`, so its tie-break seq is drawn then — after the bridge's arming
  /// for a tick at `at` when that arming happened earlier still.
  sim::SimTime defer{};
};

/// The replay ledger at one control event.
struct Ledger {
  std::uint64_t events_fired = 0;
  std::uint64_t event_seq = 0;
  std::uint64_t hops = 0;
  std::size_t in_flight = 0;
  std::uint64_t bytes_hash = 0;  // FNV-1a of the hop-store save_state
  bool operator==(const Ledger&) const = default;
};

struct Observed {
  std::vector<FateRow> fates;
  DataPlane::Counters counters;
  std::uint64_t events_fired = 0;
  std::uint64_t event_seq = 0;
  std::size_t in_flight = 0;
  std::vector<std::uint8_t> bytes;  // save_state payload at probe_at
  std::vector<Ledger> ledger;       // one entry per applied op
  std::vector<HookView> hooks;      // every fate batch and source send
  std::uint64_t speculative_hops = 0;
};

constexpr std::size_t kNodes = 6;

/// The graph and destination table a script runs on, and the plane's own
/// constant-rate sources (none by default), started before the script.
struct Graph {
  net::Topology topo = topo::make_ring(kNodes);
  std::vector<net::NodeId> destinations = {0, 1};  // prefix 0 at 0, 1 at 1
  DataPlane::SourcePlan plan{.interval = sim::SimTime::millis(100)};
  std::vector<DataPlane::SourceStart> sources = {};
};

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Replay `script` under the given backend. At `probe_at` the hop store
/// is serialized (and, when `roundtrip` is set, restored in place and
/// re-serialized — the round-trip must be invisible downstream).
Observed execute(PlaneBackend backend, const std::vector<Op>& script,
                 sim::SimTime probe_at, bool roundtrip = false,
                 Graph setup = {}) {
  sim::Simulator sim;
  net::Topology& topo = setup.topo;
  std::vector<Fib> fibs(topo.node_count());
  DataPlaneOptions options;
  options.destinations = setup.destinations;
  options.backend = backend;
  DataPlane plane{sim, topo, fibs, std::move(options)};
  FateRecorder recorder{sim};
  plane.set_fate_sink(&recorder);
  plane.set_send_hook([&](net::NodeId, net::Prefix, sim::SimTime when) {
    EXPECT_EQ(when, sim.now());
    recorder.hooks.push_back(view(sim, 0));
  });
  if (!setup.sources.empty()) plane.start_sources(setup.plan, setup.sources);
  Observed out;

  const auto apply = [&](const Op& op) {
    switch (op.kind) {
      case Op::Kind::kInject:
        plane.inject(Injection{op.a, op.prefix, op.ttl});
        break;
      case Op::Kind::kSetRoute:
        fibs[op.a].set_next_hop(op.prefix, op.b);
        break;
      case Op::Kind::kClearRoute:
        fibs[op.a].clear_route(op.prefix);
        break;
      case Op::Kind::kLinkToggle:
        topo.set_link_state(*topo.link_between(op.a, op.b), op.up);
        break;
      case Op::Kind::kStopSources:
        plane.stop_sources();
        break;
    }
    snap::Writer w;
    plane.save_state(w);
    out.ledger.push_back(Ledger{sim.events_fired(), sim.event_seq(),
                                plane.counters().hops, plane.in_flight(),
                                fnv(std::move(w).take())});
  };
  for (const Op& op : script) {
    if (op.defer == sim::SimTime::zero()) {
      sim.schedule_at(op.at, [&apply, op] { apply(op); });
    } else {
      sim.schedule_at(op.at - op.defer, [&sim, &apply, op] {
        sim.schedule_at(op.at, [&apply, op] { apply(op); });
      });
    }
  }

  sim.schedule_at(probe_at, [&] {
    snap::Writer w;
    plane.save_state(w);
    out.bytes = std::move(w).take();
    if (roundtrip) {
      snap::Reader r{out.bytes};
      plane.restore_state(r);
      r.finish();
      snap::Writer again;
      plane.save_state(again);
      ASSERT_EQ(out.bytes, std::move(again).take());
    }
  });

  sim.run();
  out.fates = recorder.rows;
  out.hooks = recorder.hooks;
  out.counters = plane.counters();
  out.events_fired = sim.events_fired();
  out.event_seq = sim.event_seq();
  out.in_flight = plane.in_flight();
  out.speculative_hops = plane.speculative_hops();
  return out;
}

void expect_equal(const Observed& heap, const Observed& rings) {
  EXPECT_EQ(heap.fates, rings.fates);
  EXPECT_EQ(heap.counters.injected, rings.counters.injected);
  EXPECT_EQ(heap.counters.delivered, rings.counters.delivered);
  EXPECT_EQ(heap.counters.ttl_exhausted, rings.counters.ttl_exhausted);
  EXPECT_EQ(heap.counters.no_route, rings.counters.no_route);
  EXPECT_EQ(heap.counters.link_down, rings.counters.link_down);
  EXPECT_EQ(heap.counters.hops, rings.counters.hops);
  EXPECT_EQ(heap.events_fired, rings.events_fired);
  EXPECT_EQ(heap.event_seq, rings.event_seq);
  EXPECT_EQ(heap.in_flight, rings.in_flight);
  EXPECT_EQ(heap.bytes, rings.bytes);
  EXPECT_EQ(heap.hooks, rings.hooks);
  ASSERT_EQ(heap.ledger.size(), rings.ledger.size());
  for (std::size_t i = 0; i < heap.ledger.size(); ++i) {
    EXPECT_EQ(heap.ledger[i], rings.ledger[i]) << "at control event " << i;
  }
  EXPECT_EQ(heap.speculative_hops, 0u);
}

/// Run `script` on both backends, require every observable to agree, and
/// return the ring run.
Observed differential(const std::vector<Op>& script, sim::SimTime probe,
                      const Graph& setup = {}, bool roundtrip = false) {
  const Observed heap =
      execute(PlaneBackend::kHeap, script, probe, roundtrip, setup);
  Observed rings =
      execute(PlaneBackend::kRings, script, probe, roundtrip, setup);
  expect_equal(heap, rings);
  return rings;
}

/// Routes every node around the ring toward node 0 on both prefixes
/// (prefix 1's destination, node 1, still terminates its own packets).
std::vector<Op> ring_routes() {
  std::vector<Op> ops;
  for (net::NodeId v = 1; v < kNodes; ++v) {
    for (net::Prefix p = 0; p < 2; ++p) {
      ops.push_back(Op{.kind = Op::Kind::kSetRoute,
                       .at = sim::SimTime::zero(),
                       .a = v,
                       .b = static_cast<net::NodeId>(v - 1),
                       .prefix = p});
    }
  }
  return ops;
}

/// Seed-derived history: ring routes, then a mix of injections (bursty,
/// loop-prone TTLs), route rewires toward arbitrary nodes (kLinkDown when
/// no ring edge exists), route clears (kNoRoute), and link flaps.
std::vector<Op> random_script(std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Op> ops = ring_routes();
  constexpr int kTtls[] = {1, 2, 5, 10, kDefaultTtl};
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.at = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.next_below(50'000)));
    const auto node = static_cast<net::NodeId>(rng.next_below(kNodes));
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // half the script is traffic, often same-tick bursts
        op.kind = Op::Kind::kInject;
        op.a = node;
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        op.ttl = kTtls[rng.next_below(5)];
        const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 4));
        for (std::size_t j = 0; j < burst; ++j) {
          Op copy = op;
          copy.a = static_cast<net::NodeId>(rng.next_below(kNodes));
          ops.push_back(copy);
        }
        continue;
      }
      case 4: {  // rewire: neighbors form loops, strangers hit kLinkDown
        op.kind = Op::Kind::kSetRoute;
        op.a = node;
        op.b = static_cast<net::NodeId>(
            (node + 1 + rng.next_below(kNodes - 1)) % kNodes);
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        break;
      }
      case 5: {
        op.kind = Op::Kind::kClearRoute;
        op.a = node;
        op.prefix = static_cast<net::Prefix>(rng.next_below(2));
        break;
      }
      default: {
        op.kind = Op::Kind::kLinkToggle;
        op.a = node;
        op.b = static_cast<net::NodeId>((node + 1) % kNodes);
        op.up = rng.chance(0.5);
        break;
      }
    }
    ops.push_back(op);
  }
  return ops;
}

TEST(DataPlaneBackendTest, RandomHistoriesAgree) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> script = random_script(seed);
    const sim::SimTime probe = sim::SimTime::micros(25'001);
    const Observed heap = execute(PlaneBackend::kHeap, script, probe);
    const Observed rings = execute(PlaneBackend::kRings, script, probe);
    expect_equal(heap, rings);
    EXPECT_FALSE(heap.fates.empty());
  }
}

TEST(DataPlaneBackendTest, SameTickBurstsKeepFifoOrder) {
  // 20 packets injected at the same instant from alternating sources:
  // FIFO within every tick cohort means fates must come out in exactly
  // injection order under both backends.
  std::vector<Op> script = ring_routes();
  for (int i = 0; i < 20; ++i) {
    script.push_back(Op{.kind = Op::Kind::kInject,
                        .at = sim::SimTime::millis(1),
                        .a = static_cast<net::NodeId>(2 + (i % 4)),
                        .prefix = 0});
  }
  const sim::SimTime probe = sim::SimTime::millis(3);
  const Observed heap = execute(PlaneBackend::kHeap, script, probe);
  const Observed rings = execute(PlaneBackend::kRings, script, probe);
  expect_equal(heap, rings);
  ASSERT_EQ(heap.fates.size(), 20u);
  for (std::size_t i = 1; i < heap.fates.size(); ++i) {
    // Same hop distance ⇒ same arrival tick ⇒ ids must stay ascending.
    if (heap.fates[i].when == heap.fates[i - 1].when) {
      EXPECT_GT(heap.fates[i].id, heap.fates[i - 1].id);
    }
  }
}

TEST(DataPlaneBackendTest, TerminalEdgesAgree) {
  // One script that forces every terminal fate: a delivery, a TTL death
  // in a 2-loop, a mid-path no-route, and a link-down drop.
  std::vector<Op> script = ring_routes();
  const auto t = [](std::int64_t ms) { return sim::SimTime::millis(ms); };
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(1), .a = 2});
  // 4 <-> 5 loop on prefix 1, entered at 5 with a tiny TTL.
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = t(2), .a = 4, .b = 5, .prefix = 1});
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = t(2), .a = 5, .b = 4, .prefix = 1});
  script.push_back(Op{
      .kind = Op::Kind::kInject, .at = t(3), .a = 5, .prefix = 1, .ttl = 7});
  // No-route mid-path: clear node 1's prefix-0 route, inject at 3 (the
  // packet walks 3 → 2 → 1 and dies at 1, reaching it at t(5) + 4 ms).
  script.push_back(Op{.kind = Op::Kind::kClearRoute, .at = t(4), .a = 1});
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(5), .a = 3});
  // Link-down drop: cut 2-1 after the no-route packet has cleared node 2,
  // then inject at 3 again (node 2's FIB still points at 1).
  script.push_back(Op{
      .kind = Op::Kind::kLinkToggle, .at = t(10), .a = 2, .b = 1, .up = false});
  script.push_back(Op{.kind = Op::Kind::kInject, .at = t(11), .a = 3});
  const Observed heap = execute(PlaneBackend::kHeap, script, t(12));
  const Observed rings = execute(PlaneBackend::kRings, script, t(12));
  expect_equal(heap, rings);
  EXPECT_EQ(heap.counters.delivered, 1u);
  EXPECT_EQ(heap.counters.ttl_exhausted, 1u);
  EXPECT_EQ(heap.counters.no_route, 1u);
  EXPECT_EQ(heap.counters.link_down, 1u);
}

TEST(DataPlaneBackendTest, MidRunRoundTripIsInvisible) {
  // Serialize/restore/re-serialize the hop store mid-flight under both
  // backends: the bytes must be stable and the downstream fate stream
  // identical to an uninterrupted run.
  for (std::uint64_t seed : {3ULL, 7ULL, 19ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> script = random_script(seed);
    const sim::SimTime probe = sim::SimTime::micros(25'001);
    for (const PlaneBackend backend :
         {PlaneBackend::kHeap, PlaneBackend::kRings}) {
      SCOPED_TRACE(backend == PlaneBackend::kHeap ? "heap" : "rings");
      const Observed plain = execute(backend, script, probe, false);
      const Observed cycled = execute(backend, script, probe, true);
      EXPECT_EQ(plain.fates, cycled.fates);
      EXPECT_EQ(plain.bytes, cycled.bytes);
      EXPECT_EQ(plain.events_fired, cycled.events_fired);
    }
  }
}

TEST(DataPlaneBackendTest, SerializedBytesAreBackendInvariantWhileLooping) {
  // Pin a long-lived 2-loop so the probe catches a non-trivial in-flight
  // set; the canonical (at, seq) ascending serialization must agree.
  std::vector<Op> script = ring_routes();
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = sim::SimTime::millis(1), .a = 3,
         .b = 4});
  script.push_back(
      Op{.kind = Op::Kind::kSetRoute, .at = sim::SimTime::millis(1), .a = 4,
         .b = 3});
  for (int i = 0; i < 8; ++i) {
    script.push_back(Op{.kind = Op::Kind::kInject,
                        .at = sim::SimTime::millis(2 + i),
                        .a = 4});
  }
  const sim::SimTime probe = sim::SimTime::millis(30);
  const Observed heap = execute(PlaneBackend::kHeap, script, probe);
  const Observed rings = execute(PlaneBackend::kRings, script, probe);
  expect_equal(heap, rings);
  // The probe must have caught packets in flight: the payload holds the
  // 89-byte fixed prologue plus 60 bytes per serialized hop event.
  EXPECT_GE(heap.bytes.size(), 89u + 60u);
  EXPECT_EQ(heap.counters.ttl_exhausted, 8u);
}

// ---- speculative cycle delivery edge cases ---------------------------------

sim::SimTime ms(std::int64_t v) { return sim::SimTime::millis(v); }

Op inject_at(sim::SimTime at, net::NodeId source, net::Prefix prefix = 0,
             int ttl = kDefaultTtl) {
  return Op{.kind = Op::Kind::kInject,
            .at = at,
            .a = source,
            .prefix = prefix,
            .ttl = ttl};
}

Op route_at(sim::SimTime at, net::NodeId node, net::NodeId next,
            net::Prefix prefix = 0) {
  return Op{.kind = Op::Kind::kSetRoute,
            .at = at,
            .a = node,
            .b = next,
            .prefix = prefix};
}

Op link_at(sim::SimTime at, net::NodeId a, net::NodeId b, bool up) {
  return Op{.kind = Op::Kind::kLinkToggle, .at = at, .a = a, .b = b, .up = up};
}

/// Route `cycle[i]` to `cycle[i + 1]` (wrapping) for `prefix` at time 0.
void add_cycle(std::vector<Op>& ops, const std::vector<net::NodeId>& cycle,
               net::Prefix prefix = 0) {
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    ops.push_back(route_at(sim::SimTime::zero(), cycle[i],
                           cycle[(i + 1) % cycle.size()], prefix));
  }
}

/// Ring routes plus a 3 <-> 4 loop on prefix 0, fed by a source at node 4
/// every 40 ms from t = 1 ms (so its packets share the odd-ms lattice).
std::vector<Op> two_loop_traffic(int packets = 8) {
  std::vector<Op> ops = ring_routes();
  ops.push_back(route_at(sim::SimTime::zero(), 3, 4));
  ops.push_back(route_at(sim::SimTime::zero(), 4, 3));
  for (int j = 0; j < packets; ++j) ops.push_back(inject_at(ms(1 + 40 * j), 4));
  return ops;
}

TEST(DataPlaneBackendTest, CycleLengthsTwoToEight) {
  // Every cycle length from 2 to 8 on a clique, with TTLs that are and
  // are not multiples of the cycle length; packets from one source share
  // a lattice, so their cohort moves as one block between deaths.
  for (std::size_t len = 2; len <= 8; ++len) {
    SCOPED_TRACE("cycle length " + std::to_string(len));
    Graph setup{topo::make_clique(10), {0}};
    std::vector<Op> script;
    std::vector<net::NodeId> cycle;
    for (std::size_t i = 1; i <= len; ++i) {
      cycle.push_back(static_cast<net::NodeId>(i));
    }
    add_cycle(script, cycle);
    const int ttls[] = {kDefaultTtl, kDefaultTtl - 1,
                        static_cast<int>(4 * len + 1), 61};
    for (int j = 0; j < 12; ++j) {
      script.push_back(
          inject_at(ms(1 + 20 * j), 1, 0, ttls[static_cast<std::size_t>(j) % 4]));
    }
    const Observed rings = differential(script, ms(97), setup);
    EXPECT_EQ(rings.counters.ttl_exhausted, 12u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
}

TEST(DataPlaneBackendTest, TailIntoCycle) {
  // 7 -> 6 -> 5 -> 4 feeds the 1 -> 2 -> 3 cycle; some TTLs run out on
  // the tail, the rest circle until they die.
  Graph setup{topo::make_clique(10), {0}};
  std::vector<Op> script;
  add_cycle(script, {1, 2, 3});
  script.push_back(route_at(sim::SimTime::zero(), 7, 6));
  script.push_back(route_at(sim::SimTime::zero(), 6, 5));
  script.push_back(route_at(sim::SimTime::zero(), 5, 4));
  script.push_back(route_at(sim::SimTime::zero(), 4, 1));
  for (int j = 0; j < 10; ++j) {
    script.push_back(inject_at(ms(1 + 30 * j), 7, 0, j % 3 == 0 ? 3 : 100 + j));
    script.push_back(inject_at(ms(1 + 30 * j), 5));
  }
  const Observed rings = differential(script, ms(151), setup);
  EXPECT_EQ(rings.counters.ttl_exhausted, 20u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, FibChangeAtSkippedTickUnderBothSeqOrders) {
  // Node 4 loses its route exactly at 81 ms, a tick the cohort would skip
  // and at which its packets arrive at node 4: once ordered before the
  // bridge's firing at that tick, once after its first firing there.
  const Op cut{.kind = Op::Kind::kClearRoute, .at = ms(81), .a = 4};
  std::vector<Op> before = two_loop_traffic();
  before.push_back(cut);
  std::vector<Op> after = two_loop_traffic();
  Op late = cut;
  late.defer = ms(1);
  after.push_back(late);
  const Observed first = differential(before, ms(80));
  const Observed second = differential(after, ms(80));
  EXPECT_GT(first.speculative_hops, 0u);
  EXPECT_GT(second.speculative_hops, 0u);
  // The two orders really are different histories.
  EXPECT_NE(first.fates, second.fates);
  EXPECT_GT(first.counters.no_route, 0u);
}

TEST(DataPlaneBackendTest, ControlEventAtATickSchedulesTwoMsLater) {
  // Control events at lattice ticks schedule work for the next tick: an
  // injection into the loop and a FIB flip, both drawn after the bridge.
  std::vector<Op> script = two_loop_traffic();
  Op join = inject_at(ms(123), 3);
  join.defer = ms(2);
  script.push_back(join);
  Op flip = route_at(ms(203), 4, 5);
  flip.defer = ms(2);
  script.push_back(flip);
  Op back = route_at(ms(243), 4, 3);
  back.defer = ms(2);
  script.push_back(back);
  const Observed rings = differential(script, ms(200));
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, LinkFlapOnACycleLink) {
  // The 3 - 4 link fails at a skipped tick and comes back 20 ms later:
  // the speculating cohort must drop at its exact hop (kLinkDown) and the
  // packets injected after the repair must loop again.
  std::vector<Op> script = two_loop_traffic(10);
  script.push_back(link_at(ms(101), 3, 4, false));
  script.push_back(link_at(ms(121), 3, 4, true));
  const Observed rings = differential(script, ms(110));
  EXPECT_GT(rings.counters.link_down, 0u);
  EXPECT_GT(rings.counters.ttl_exhausted, 0u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, SaveRestoreMidSpeculation) {
  // Serialize while a cohort is mid-speculation: the bytes must be the
  // heap's, and restoring them in place must leave the run unchanged.
  const std::vector<Op> script = two_loop_traffic();
  const sim::SimTime probe = ms(100) + sim::SimTime::micros(1);
  const Observed plain = differential(script, probe);
  const Observed cycled = differential(script, probe, Graph{}, true);
  EXPECT_EQ(plain.fates, cycled.fates);
  EXPECT_EQ(plain.bytes, cycled.bytes);
  EXPECT_EQ(plain.events_fired, cycled.events_fired);
  EXPECT_GT(plain.speculative_hops, 0u);
  // A probe mid-flight holds packets: more than the fixed prologue.
  EXPECT_GE(plain.bytes.size(), 89u + 60u);
}

TEST(DataPlaneBackendTest, SourcesCollidingModTwoMsShareACohort) {
  // Sources 2 and 5 (5 feeds the 2 -> 3 -> 4 cycle) inject on the same
  // 2 ms lattice — sometimes at the same microsecond — so their packets
  // share cohorts in every arrangement of seq order.
  Graph setup{topo::make_clique(8), {0}};
  std::vector<Op> script;
  add_cycle(script, {2, 3, 4});
  script.push_back(route_at(sim::SimTime::zero(), 5, 2));
  for (int j = 0; j < 8; ++j) {
    script.push_back(inject_at(ms(1 + 30 * j), 2));
    script.push_back(inject_at(ms(1 + 30 * j + 2 * (j % 3)), 5));
  }
  const Observed rings = differential(script, ms(121), setup);
  EXPECT_EQ(rings.counters.ttl_exhausted, 16u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, MultiPrefixStreams) {
  // Both prefixes loop over 3 <-> 4 and share cohorts; a FIB change on
  // prefix 1 must leave prefix 0's packets speculating.
  std::vector<Op> script = ring_routes();
  for (net::Prefix p = 0; p < 2; ++p) {
    script.push_back(route_at(sim::SimTime::zero(), 3, 4, p));
    script.push_back(route_at(sim::SimTime::zero(), 4, 3, p));
  }
  for (int j = 0; j < 8; ++j) {
    script.push_back(inject_at(ms(1 + 40 * j), 4, 0));
    script.push_back(inject_at(ms(1 + 40 * j), 4, 1));
  }
  script.push_back(route_at(ms(141), 3, 2, 1));
  script.push_back(route_at(ms(201), 3, 4, 1));
  const Observed rings = differential(script, ms(150));
  EXPECT_GT(rings.counters.delivered, 0u);
  EXPECT_GT(rings.counters.ttl_exhausted, 0u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, HeterogeneousLinkDelays) {
  // A uniform 3 ms cycle, a uniform 2 ms cycle and a mixed-delay cycle,
  // all fed from node 9: cohorts of different delays collide at shared
  // ticks, and the mixed cycle never speculates.
  net::Topology topo{10};
  topo.add_link(0, 1, ms(2));
  topo.add_link(1, 2, ms(3));
  topo.add_link(2, 3, ms(3));
  topo.add_link(3, 1, ms(3));
  topo.add_link(4, 5, ms(2));
  topo.add_link(6, 7, ms(1));
  topo.add_link(7, 8, ms(2));
  topo.add_link(8, 6, ms(2));
  topo.add_link(9, 1, ms(3));
  topo.add_link(9, 4, ms(2));
  topo.add_link(9, 6, ms(1));
  topo.add_link(1, 4, ms(5));
  Graph setup{std::move(topo), {0}};
  std::vector<Op> script;
  add_cycle(script, {1, 2, 3});
  add_cycle(script, {4, 5});
  add_cycle(script, {6, 7, 8});
  script.push_back(route_at(sim::SimTime::zero(), 9, 1));
  for (int j = 0; j < 6; ++j) {
    script.push_back(inject_at(ms(1 + 6 * j), 1));
    script.push_back(inject_at(ms(1 + 6 * j), 4));
    script.push_back(inject_at(ms(1 + 6 * j), 6));
    script.push_back(inject_at(ms(2 + 6 * j), 9));
  }
  script.push_back(route_at(ms(20), 9, 4));
  script.push_back(route_at(ms(40), 9, 6));
  script.push_back(route_at(ms(301), 2, 1));  // cycle shrinks to 1 <-> 2
  script.push_back(route_at(ms(333), 5, 9));  // 4 -> 5 -> 9 -> 6 (mixed)
  script.push_back(route_at(ms(401), 1, 0));  // the 1-cycle delivers
  const Observed rings = differential(script, ms(250), setup);
  EXPECT_GT(rings.counters.ttl_exhausted, 0u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

// ---- closed-form replay windows -----------------------------------------
//
// Between two control events or source ticks the ring store fires a whole
// window of speculative cohorts in one pass; each case below pins one way
// a window starts, ends or is cut short against the hop-by-hop heap.

sim::SimTime us(std::int64_t v) { return sim::SimTime::micros(v); }

/// A control event that changes nothing the packets read: prefix 1's
/// route at node 5, which no looping prefix-0 walk passes.
Op idle_at(sim::SimTime at) { return route_at(at, 5, 4, 1); }

/// Ring routes plus a 3 <-> 4 loop on prefix 0 holding one cohort per
/// phase in `phases` (µs into the 2 ms lap), each injected at node 4
/// `per_phase` times at the same microsecond, first lap starting at 1 ms.
std::vector<Op> phased_loop(const std::vector<std::int64_t>& phases,
                            int per_phase = 1, int ttl = kDefaultTtl) {
  std::vector<Op> ops = ring_routes();
  ops.push_back(route_at(sim::SimTime::zero(), 3, 4));
  ops.push_back(route_at(sim::SimTime::zero(), 4, 3));
  for (const std::int64_t phase : phases) {
    for (int i = 0; i < per_phase; ++i) {
      ops.push_back(inject_at(us(1'000 + phase), 4, 0, ttl));
    }
  }
  return ops;
}

TEST(DataPlaneBackendTest, WindowSpansEveryCohortUpToATickOrControlEvent) {
  // Six cohorts circle the loop; between events every window covers the
  // whole queue, lap after lap. A source ticks exactly on one cohort's
  // lattice and control events land exactly on another's, so windows end
  // on a due cohort under both kinds of horizon.
  Graph setup;
  setup.plan = DataPlane::SourcePlan{.interval = ms(40)};
  setup.sources = {DataPlane::SourceStart{.at = us(21'300), .node = 5}};
  std::vector<Op> script = phased_loop({0, 300, 700, 1'100, 1'500, 1'900});
  for (const std::int64_t lap : {12, 30, 47}) {
    script.push_back(idle_at(us(1'000 + 1'100 + 2'000 * lap)));
  }
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(150)});
  const Observed rings = differential(script, us(90'001), setup);
  EXPECT_EQ(rings.counters.injected, 10u);
  EXPECT_GT(rings.speculative_hops, 1'000u);
}

TEST(DataPlaneBackendTest, NewcomerJoinsACohortLappedManyTimes) {
  // A cohort replays ~50 laps untouched; then packets join it on its own
  // lattice, once ordered before its bridge firing at that tick and once
  // after it (a control event scheduled a lap earlier).
  for (const bool late : {false, true}) {
    SCOPED_TRACE(late ? "after the bridge" : "before the bridge");
    std::vector<Op> script = phased_loop({0, 900});
    Op join = inject_at(us(1'000 + 2'000 * 50), 4);
    if (late) join.defer = ms(2);
    script.push_back(join);
    script.push_back(inject_at(us(1'000 + 2'000 * 53), 3));
    const Observed rings = differential(script, us(120'001));
    EXPECT_EQ(rings.counters.ttl_exhausted, 4u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
}

TEST(DataPlaneBackendTest, TtlRunsOutMidWindow) {
  // Short-lived packets share the loop with long-lived ones: their
  // cohorts die between events, so windows stop at each death and the
  // dying cohorts retire in a real firing.
  std::vector<Op> script = phased_loop({0, 500, 1'000, 1'500});
  for (const int ttl : {9, 17, 30, 41}) {
    script.push_back(inject_at(us(1'250 + 37 * ttl), 4, 0, ttl));
  }
  script.push_back(idle_at(ms(200)));
  const Observed rings = differential(script, us(61'001));
  EXPECT_EQ(rings.counters.ttl_exhausted, 8u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, SingleAndMultiPacketCohortsMix) {
  // k = 1, 2 and 3 cohorts interleave: each k >= 2 cohort fires twice per
  // tick, so the replay's firing count is j + #{k >= 2}.
  std::vector<Op> script = phased_loop({0, 600, 1'200}, 1);
  for (const int k : {2, 3}) {
    for (int i = 0; i < k; ++i) {
      script.push_back(inject_at(us(1'000 + 300 * (2 * k - 3)), 4));
    }
  }
  script.push_back(idle_at(us(41'300)));
  const Observed rings = differential(script, us(70'001));
  EXPECT_EQ(rings.counters.ttl_exhausted, 8u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, FibChangeOnOneWalkAfterALongLazyRun) {
  // Two loops replay side by side for ~100 laps; then node 1 gets a route
  // out of its loop. Only that loop's cohorts return to hop by hop, from
  // their exact hop, and deliver; the other loop keeps speculating.
  std::vector<Op> script = phased_loop({0, 800});
  script.push_back(route_at(sim::SimTime::zero(), 1, 2));
  script.push_back(route_at(sim::SimTime::zero(), 2, 1));
  script.push_back(inject_at(us(1'400), 2));
  script.push_back(inject_at(us(2'500), 1));
  script.push_back(route_at(us(201'777), 1, 0));
  const Observed rings = differential(script, us(230'001));
  EXPECT_EQ(rings.counters.delivered, 2u);
  EXPECT_EQ(rings.counters.ttl_exhausted, 2u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, TopologyBumpMidWindow) {
  // A link far from the loop flaps while cohorts replay: every
  // speculative packet is settled at its exact hop and starts over.
  std::vector<Op> script = phased_loop({0, 400, 1'300});
  script.push_back(link_at(us(50'555), 5, 0, false));
  script.push_back(link_at(us(90'321), 5, 0, true));
  const Observed rings = differential(script, us(70'001));
  EXPECT_EQ(rings.counters.ttl_exhausted, 3u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, SaveRestoreMidWindow) {
  // Serialize, restore and re-serialize while lagged cohorts of every k
  // replay: the bytes are the heap's and the rest of the run is unchanged.
  std::vector<Op> script = phased_loop({0, 500, 1'500}, 2);
  script.push_back(inject_at(us(1'250), 4));
  const sim::SimTime probe = us(77'777);
  const Observed plain = differential(script, probe);
  const Observed cycled = differential(script, probe, Graph{}, true);
  EXPECT_EQ(plain.fates, cycled.fates);
  EXPECT_EQ(plain.bytes, cycled.bytes);
  EXPECT_EQ(plain.events_fired, cycled.events_fired);
  EXPECT_GT(plain.speculative_hops, 0u);
  EXPECT_GE(plain.bytes.size(), 89u + 7u * 60u);
}

TEST(DataPlaneBackendTest, NonSpeculativeCohortsInsideThePhaseRing) {
  // Fresh packets (not speculating for their first hops) and packets on
  // their way to delivery sit between replaying cohorts: a window stops
  // at each, the tick drains for real, and the next window resumes.
  Graph setup;
  setup.plan = DataPlane::SourcePlan{.interval = ms(10)};
  setup.sources = {DataPlane::SourceStart{.at = us(5'450), .node = 2},
                   DataPlane::SourceStart{.at = us(5'950), .node = 5}};
  std::vector<Op> script = phased_loop({0, 1'000});
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(60)});
  const Observed rings = differential(script, us(33'001), setup);
  EXPECT_GT(rings.counters.delivered, 0u);
  EXPECT_GT(rings.counters.ttl_exhausted, 2u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, RandomLoopingHistoriesAgree) {
  // Seed-derived stress: an 8-clique with mixed link delays, random
  // forwarding graphs on two prefixes (so loops of every length), CBR
  // sources on random phases, and FIB flips, route clears and link flaps
  // landing at arbitrary microseconds — some deferred behind the bridge.
  std::uint64_t speculated = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    constexpr std::size_t kClique = 8;
    net::Topology topo{kClique};
    for (net::NodeId a = 0; a < kClique; ++a) {
      for (net::NodeId b = a + 1; b < kClique; ++b) {
        topo.add_link(a, b, ms(rng.chance(0.8) ? 2 : rng.uniform_int(1, 3)));
      }
    }
    const auto other = [&](net::NodeId v) {
      return static_cast<net::NodeId>(
          (v + 1 + rng.next_below(kClique - 1)) % kClique);
    };
    std::vector<Op> script;
    for (net::NodeId v = 0; v < kClique; ++v) {
      for (net::Prefix p = 0; p < 2; ++p) {
        if (v != p) script.push_back(route_at(sim::SimTime::zero(), v, other(v), p));
      }
    }
    for (net::NodeId v = 2; v < kClique; ++v) {
      const auto phase = static_cast<std::int64_t>(rng.next_below(20'000));
      for (int j = 0; j < 15; ++j) {
        script.push_back(inject_at(sim::SimTime::micros(phase + 20'000 * j), v,
                                   static_cast<net::Prefix>(j % 2)));
      }
    }
    for (int i = 0; i < 40; ++i) {
      const auto at = sim::SimTime::micros(
          static_cast<std::int64_t>(1 + rng.next_below(400'000)));
      const auto v = static_cast<net::NodeId>(rng.next_below(kClique));
      const auto p = static_cast<net::Prefix>(rng.next_below(2));
      Op op = rng.chance(0.15)
                  ? link_at(at, v, other(v), rng.chance(0.5))
                  : (rng.chance(0.2) ? Op{.kind = Op::Kind::kClearRoute,
                                          .at = at, .a = v, .prefix = p}
                                     : route_at(at, v, other(v), p));
      if (rng.chance(0.3)) {
        op.defer = sim::SimTime::micros(
            static_cast<std::int64_t>(1 + rng.next_below(3'000)));
        if (op.defer > op.at) op.defer = op.at;
      }
      script.push_back(op);
    }
    const sim::SimTime probe = sim::SimTime::micros(
        static_cast<std::int64_t>(1 + rng.next_below(300'000)));
    const Observed rings = differential(script, probe, Graph{std::move(topo), {0, 1}},
                                        seed % 2 == 0);
    speculated += rings.speculative_hops;
  }
  EXPECT_GT(speculated, 0u);
}

// ---- speculative delivery on ending walks ---------------------------------
//
// Packets whose walk ends in a delivery or a drop speculate from their
// first hop once their prefix's forwarding state is older than the walk
// takes to cross; each case pins one way such a walk ends, is cut short or
// is refused against the hop-by-hop heap.

/// Ring routes toward node 0 (set at 0), and traffic on prefix 0 from
/// `source` every `every` from 21 ms on: by then the state is older than
/// any walk on the 6-ring takes to cross.
std::vector<Op> delivery_traffic(net::NodeId source, int packets = 8,
                                 sim::SimTime every = ms(2)) {
  std::vector<Op> ops = ring_routes();
  for (int j = 0; j < packets; ++j) {
    ops.push_back(inject_at(ms(21) + every * j, source));
  }
  return ops;
}

TEST(DataPlaneBackendTest, FibChangeOnTheDeliveryTick) {
  // The first packet from node 5 reaches node 0 at 31 ms; a FIB change
  // lands on that tick at the terminal itself or one hop before it, once
  // ordered before the bridge's firing there and once after it.
  for (const net::NodeId node : {0u, 1u}) {
    for (const bool late : {false, true}) {
      SCOPED_TRACE("node " + std::to_string(node) +
                   (late ? ", after the bridge" : ", before the bridge"));
      std::vector<Op> script = delivery_traffic(5);
      Op flip = route_at(ms(31), node, node == 0 ? 1 : 2);
      if (late) flip.defer = ms(1);
      script.push_back(flip);
      const Observed rings = differential(script, us(32'001));
      EXPECT_GT(rings.counters.delivered, 0u);
      EXPECT_GT(rings.speculative_hops, 0u);
    }
  }
}

TEST(DataPlaneBackendTest, FibChangeAtTheTerminalOfANoRouteWalk) {
  // Node 2 has no route, so packets from node 5 drop there. It regains
  // one while packets speculate toward it and none rebuilds their walk,
  // once on the tick a packet reaches it and once between ticks; and it
  // loses the route again later.
  for (const sim::SimTime change : {us(31'000), us(31'700)}) {
    SCOPED_TRACE("route back at " + std::to_string(change.as_micros()) + " us");
    std::vector<Op> script = delivery_traffic(5, 7, us(1'000));
    script.push_back(
        Op{.kind = Op::Kind::kClearRoute, .at = sim::SimTime::zero(), .a = 2});
    script.push_back(route_at(change, 2, 1));
    script.push_back(Op{.kind = Op::Kind::kClearRoute, .at = ms(60), .a = 2});
    script.push_back(inject_at(ms(90), 5));
    const Observed rings = differential(script, us(32'001));
    EXPECT_GT(rings.counters.no_route, 0u);
    EXPECT_GT(rings.counters.delivered, 0u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
}

TEST(DataPlaneBackendTest, NoRouteDropPartwayAlongAWalk) {
  // Node 3 loses its route while packets speculate along 5 -> ... -> 0:
  // those past it still deliver, the rest drop at node 3 on their exact
  // tick.
  std::vector<Op> script = delivery_traffic(5, 12, us(700));
  script.push_back(Op{.kind = Op::Kind::kClearRoute, .at = us(26'300), .a = 3});
  const Observed rings = differential(script, us(27'001));
  EXPECT_GT(rings.counters.no_route, 0u);
  EXPECT_GT(rings.counters.delivered, 0u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, CohortsMixEndingAndLoopingWalks) {
  // Prefix 1 circles 3 <-> 4 while prefix 0 delivers along the ring; the
  // packets injected together share every cohort until the delivered ones
  // retire from it, TTL deaths included.
  std::vector<Op> script = ring_routes();
  script.push_back(route_at(sim::SimTime::zero(), 3, 4, 1));
  script.push_back(route_at(sim::SimTime::zero(), 4, 3, 1));
  for (int j = 0; j < 6; ++j) {
    const sim::SimTime at = ms(21) + us(900) * j;
    script.push_back(inject_at(at, 5));
    script.push_back(inject_at(at, 4, 1, j % 2 == 0 ? 6 : 40));
    script.push_back(inject_at(at, 3));
    script.push_back(inject_at(at, 4));
  }
  script.push_back(idle_at(ms(60)));
  const Observed rings = differential(script, us(26'001));
  EXPECT_EQ(rings.counters.delivered, 18u);
  EXPECT_EQ(rings.counters.ttl_exhausted, 6u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, LinkFlapCutsAWalksTail) {
  // The 1 - 0 link fails while packets speculate toward node 0: those
  // that reach node 1 drop there (kLinkDown) on their exact tick, and the
  // packets sent after the repair deliver again.
  std::vector<Op> script = delivery_traffic(5, 16, us(1'300));
  script.push_back(link_at(us(27'100), 1, 0, false));
  script.push_back(link_at(us(33'700), 1, 0, true));
  const Observed rings = differential(script, us(30'001));
  EXPECT_GT(rings.counters.link_down, 0u);
  EXPECT_GT(rings.counters.delivered, 0u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, SaveRestoreMidWalk) {
  // Serialize while lagged cohorts are on their way to delivery: the
  // bytes are the heap's and restoring them leaves the run unchanged.
  std::vector<Op> script = delivery_traffic(5, 10, us(500));
  for (int j = 0; j < 4; ++j) script.push_back(inject_at(ms(21) + us(500) * j, 4));
  const sim::SimTime probe = us(25'777);
  const Observed plain = differential(script, probe);
  const Observed cycled = differential(script, probe, Graph{}, true);
  EXPECT_EQ(plain.fates, cycled.fates);
  EXPECT_EQ(plain.bytes, cycled.bytes);
  EXPECT_EQ(plain.events_fired, cycled.events_fired);
  EXPECT_GT(plain.speculative_hops, 0u);
  EXPECT_GE(plain.bytes.size(), 89u + 6u * 60u);
}

TEST(DataPlaneBackendTest, ChurnGateClosesAndReopens) {
  // Node 5 flips its prefix-0 route every 500 us from 20 ms to 60 ms, then
  // every 4 ms until 120 ms. The flips never touch the walk 3 -> 2 -> 1 ->
  // 0 of packets from node 4, but while they last the prefix's state is
  // younger than that walk takes to cross (6 ms), so those packets go hop
  // by hop: at first without rebuilding the walk (the state is younger
  // than one link), later without speculating on it. Once the flips stop
  // they speculate again, and a second burst closes the gate once more.
  const auto churn = [](std::vector<Op>& ops, sim::SimTime from,
                        sim::SimTime to, sim::SimTime every) {
    int i = 0;
    for (sim::SimTime at = from; at < to; at += every, ++i) {
      ops.push_back(route_at(at, 5, i % 2 == 0 ? 0 : 4));
    }
  };
  std::vector<Op> during = ring_routes();
  churn(during, ms(20), ms(60), us(500));
  churn(during, ms(60), ms(120), ms(4));
  for (int j = 0; j < 33; ++j) during.push_back(inject_at(ms(21) + ms(3) * j, 4));
  const Observed closed = differential(during, ms(40));
  EXPECT_EQ(closed.counters.delivered, 33u);
  EXPECT_EQ(closed.speculative_hops, 0u);

  std::vector<Op> after = during;
  for (int j = 0; j < 12; ++j) after.push_back(inject_at(ms(130) + ms(3) * j, 4));
  churn(after, us(150'100), ms(152), us(500));
  const Observed reopened = differential(after, ms(140));
  EXPECT_EQ(reopened.counters.delivered, 45u);
  EXPECT_GT(reopened.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, FirstHopSpeculationOntoACycle) {
  // A packet entering a loop long after it formed speculates at its first
  // hop: every hop after that one is skipped.
  std::vector<Op> script = ring_routes();
  script.push_back(route_at(sim::SimTime::zero(), 3, 4));
  script.push_back(route_at(sim::SimTime::zero(), 4, 3));
  script.push_back(inject_at(ms(21), 4, 0, 64));
  const Observed rings = differential(script, ms(50));
  EXPECT_EQ(rings.counters.ttl_exhausted, 1u);
  EXPECT_EQ(rings.counters.hops, 63u);
  EXPECT_EQ(rings.speculative_hops, 62u);
}

TEST(DataPlaneBackendTest, WalkArenaReclaimMidTraffic) {
  // A 1000-node forwarding cycle: every walk built on it adds 1000 nodes
  // to the arena. The destination, hanging off the cycle, flips its own
  // route every 3 ms, so each flip makes the memo stale without touching
  // the cycle, and the next packet rebuilds it. Past the arena bound the
  // plane sends its speculating packets back to hop by hop and starts the
  // arena over; the packets then speculate again on their next try.
  constexpr net::NodeId kCycle = 1000;
  net::Topology topo{kCycle + 1};
  for (net::NodeId v = 0; v < kCycle; ++v) topo.add_link(v, (v + 1) % kCycle);
  topo.add_link(kCycle, 0);
  std::vector<Op> script;
  for (net::NodeId v = 0; v < kCycle; ++v) {
    script.push_back(route_at(sim::SimTime::zero(), v, (v + 1) % kCycle));
  }
  for (int f = 0; f < 1'200; ++f) {
    const sim::SimTime at = ms(10) + ms(3) * f;
    script.push_back(f % 2 == 0 ? route_at(at, kCycle, 0)
                                : Op{.kind = Op::Kind::kClearRoute,
                                     .at = at,
                                     .a = kCycle});
    script.push_back(inject_at(at + us(2'500),
                               static_cast<net::NodeId>(37 * f % kCycle), 0,
                               f % 5 == 0 ? 30 : 12));
  }
  const Observed rings =
      differential(script, ms(3'200), Graph{std::move(topo), {kCycle}});
  EXPECT_EQ(rings.counters.ttl_exhausted, 1'200u);
  EXPECT_GT(rings.speculative_hops, 1'200u * 9u);
}

/// Shortest-path next hops toward `destination` (BFS, lowest id first).
std::vector<net::NodeId> shortest_next_hops(const net::Topology& topo,
                                            net::NodeId destination) {
  std::vector<net::NodeId> next(topo.node_count(), net::kInvalidNode);
  std::vector<bool> seen(topo.node_count());
  std::deque<net::NodeId> queue{destination};
  seen[destination] = true;
  while (!queue.empty()) {
    const net::NodeId v = queue.front();
    queue.pop_front();
    std::vector<net::NodeId> around;
    for (const auto& adj : topo.adjacent(v)) around.push_back(adj.neighbor);
    std::ranges::sort(around);
    for (const net::NodeId u : around) {
      if (seen[u]) continue;
      seen[u] = true;
      next[u] = v;
      queue.push_back(u);
    }
  }
  return next;
}

TEST(DataPlaneBackendTest, DeliverySpeculationEngagesOnAStableTable) {
  // A 26-node Internet graph with 8 prefixes at spread origins, shortest-
  // path routes, and every node sending round-robin over the table for 3 s
  // before an event withdraws two prefixes at a few nodes: packets on the
  // stable table skip most of their hops, and the ledger stays the heap's.
  Graph setup{topo::make_internet_preset(26, 7), {}};
  for (net::Prefix p = 0; p < 8; ++p) {
    setup.destinations.push_back(static_cast<net::NodeId>(3 * p + 1));
  }
  std::vector<Op> script;
  for (net::Prefix p = 0; p < 8; ++p) {
    const std::vector<net::NodeId> next =
        shortest_next_hops(setup.topo, setup.destinations[p]);
    for (net::NodeId v = 0; v < next.size(); ++v) {
      if (next[v] != net::kInvalidNode) {
        script.push_back(route_at(sim::SimTime::zero(), v, next[v], p));
      }
    }
  }
  setup.plan = DataPlane::SourcePlan{.interval = ms(100), .prefix_count = 8};
  for (net::NodeId v = 0; v < 26; ++v) {
    setup.sources.push_back(
        DataPlane::SourceStart{.at = ms(10) + us(3'700) * v, .node = v});
  }
  for (const net::NodeId v : {0u, 5u, 11u, 17u, 23u}) {
    for (const net::Prefix p : {2u, 5u}) {
      script.push_back(Op{.kind = Op::Kind::kClearRoute,
                          .at = ms(3'000) + us(137) * v,
                          .a = v,
                          .prefix = p});
    }
  }
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(3'500)});
  const Observed rings = differential(script, us(3'000'001), setup);
  EXPECT_GT(rings.counters.delivered, 0u);
  EXPECT_GT(rings.counters.no_route, 0u);
  EXPECT_GE(2 * rings.speculative_hops, rings.counters.hops);
}

// ---- lifecycle events inside the replay ---------------------------------
//
// A looping packet is born (its source ticks), merges into the cohort of
// its source's older packets on the same lattice, and dies (its TTL runs
// out) while the replay runs from one control event to the next; each
// case pins one way those events meet against the hop-by-hop heap.

/// Ring routes plus the 3 <-> 4 loop on prefix 0, and the plane's own
/// sources: one at node 4 from `first`, one more at node 3 a quarter lap
/// later, every `interval` with `ttl`, stopped at `stop`.
Graph looping_sources(sim::SimTime interval, int ttl, sim::SimTime first,
                      sim::SimTime stop, std::vector<Op>& script) {
  Graph setup;
  setup.plan = DataPlane::SourcePlan{.interval = interval, .ttl = ttl};
  setup.sources = {DataPlane::SourceStart{.at = first, .node = 4},
                   DataPlane::SourceStart{.at = first + us(500), .node = 3}};
  script = ring_routes();
  script.push_back(route_at(sim::SimTime::zero(), 3, 4));
  script.push_back(route_at(sim::SimTime::zero(), 4, 3));
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = stop});
  return setup;
}

TEST(DataPlaneBackendTest, SourcesOnTheLinkLatticeShareAPhase) {
  // Every interval is a multiple of the 2 ms link delay, so a source's
  // packets land on one lattice; the TTLs keep 1 to 5 of them alive at
  // once, so each birth merges into the cohort of the older ones and each
  // death retires one of them, with no control event in between.
  std::uint64_t speculated = 0;
  for (const std::int64_t every : {2, 4, 10}) {
    for (int alive = 1; alive <= 5; ++alive) {
      SCOPED_TRACE("every " + std::to_string(every) + " ms, " +
                   std::to_string(alive) + " alive");
      std::vector<Op> script;
      const int ttl = static_cast<int>(alive * every / 2) + 1;
      const Graph setup =
          looping_sources(ms(every), ttl, ms(1), ms(301), script);
      script.push_back(idle_at(ms(150)));
      const Observed rings = differential(script, us(200'001), setup);
      EXPECT_GT(rings.counters.ttl_exhausted, 50u);
      speculated += rings.speculative_hops;
    }
  }
  EXPECT_GT(speculated, 0u);
}

TEST(DataPlaneBackendTest, NewcomerTickBeforeAndAfterItsCohortsFiring) {
  // A source's packets share its lattice, so its newcomer meets its older
  // packets' cohort at the tick it lands on.
  {
    // Before: on 2 ms links the bridge re-arms for the cohort's tick T
    // after the source drew its seq for T, so the tick comes first; the
    // newcomer opens T + 2 ms and the cohort merges behind it.
    SCOPED_TRACE("tick before the firing");
    std::vector<Op> script;
    const Graph setup = looping_sources(ms(2), 9, ms(1), ms(81), script);
    const Observed rings = differential(script, us(40'001), setup);
    EXPECT_GT(rings.counters.ttl_exhausted, 60u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
  {
    // After: on a 2-cycle of 12 ms links fed every 12 ms with TTL 3, each
    // tick's cohort holds one packet that dies and one that moves on (the
    // last, so the tick fires once). The bridge then re-arms for the next
    // tick before the source draws its seq for it, so the cohort fires
    // first and the newcomer joins it where it moved, tick after tick.
    SCOPED_TRACE("tick after the firing");
    net::Topology topo{3};
    topo.add_link(0, 1, ms(2));
    topo.add_link(1, 2, ms(12));
    Graph setup{std::move(topo), {0}};
    setup.plan = DataPlane::SourcePlan{.interval = ms(12), .ttl = 3};
    setup.sources = {DataPlane::SourceStart{.at = ms(1), .node = 1}};
    std::vector<Op> script;
    add_cycle(script, {1, 2});
    script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(301)});
    const Observed rings = differential(script, us(150'001), setup);
    EXPECT_EQ(rings.counters.ttl_exhausted, 25u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
}

TEST(DataPlaneBackendTest, BridgeFiresAheadOfASourceTickAtItsTime) {
  // Three packets circle a 2-cycle of 12 ms links; a source without a
  // route ticks every 4 ms on their lattice, its packets dropped at
  // birth. The bridge armed for their tick 12 ms earlier, before the
  // source drew its seq for that tick, so the bridge fires first there:
  // its first firing re-arms at now, the source tick comes next, and
  // then the second firing.
  net::Topology topo{4};
  topo.add_link(0, 3, ms(2));
  topo.add_link(1, 2, ms(12));
  topo.add_link(1, 3, ms(2));
  Graph setup{std::move(topo), {0}};
  setup.plan = DataPlane::SourcePlan{.interval = ms(4)};
  setup.sources = {DataPlane::SourceStart{.at = ms(1), .node = 3}};
  std::vector<Op> script;
  add_cycle(script, {1, 2});
  for (int i = 0; i < 3; ++i) script.push_back(inject_at(ms(1), 1, 0, 30));
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(401)});
  const Observed rings = differential(script, us(200'001), setup);
  EXPECT_EQ(rings.counters.ttl_exhausted, 3u);
  EXPECT_EQ(rings.counters.no_route, 100u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, DeathInMidReplay) {
  // Three sources feed a 3-cycle with short TTLs and nothing else happens
  // for 300 ms: births, merges and deaths all fall inside replays.
  Graph setup{topo::make_clique(8), {0}};
  setup.plan = DataPlane::SourcePlan{.interval = ms(6), .ttl = 7};
  setup.sources = {DataPlane::SourceStart{.at = us(1'000), .node = 1},
                   DataPlane::SourceStart{.at = us(1'700), .node = 2},
                   DataPlane::SourceStart{.at = us(3'000), .node = 3}};
  std::vector<Op> script;
  add_cycle(script, {1, 2, 3});
  script.push_back(Op{.kind = Op::Kind::kStopSources, .at = ms(301)});
  const Observed rings = differential(script, us(150'001), setup);
  EXPECT_GT(rings.counters.ttl_exhausted, 140u);
  EXPECT_GT(rings.speculative_hops, 0u);
}

TEST(DataPlaneBackendTest, ControlEventAndFibChangeAtAMergedCohortsTick) {
  // The node-4 source ticks at 1 + 4j ms, so its merged cohort sits at
  // 3 + 2n ms. An idle control event and a FIB change land exactly on
  // that tick, once ordered before the bridge's firing there and once
  // after it.
  for (const bool late : {false, true}) {
    SCOPED_TRACE(late ? "after the firing" : "before the firing");
    std::vector<Op> script;
    const Graph setup = looping_sources(ms(4), 13, ms(1), ms(121), script);
    Op idle = idle_at(ms(3 + 2 * 20));
    Op exit = route_at(ms(3 + 2 * 35), 3, 2);  // the loop opens toward 0
    Op back = route_at(ms(3 + 2 * 41), 3, 4);  // and closes again
    if (late) {
      idle.defer = ms(2);
      exit.defer = ms(2);
      back.defer = ms(2);
    }
    script.push_back(idle);
    script.push_back(exit);
    script.push_back(back);
    const Observed rings = differential(script, us(100'001), setup);
    EXPECT_GT(rings.counters.delivered, 0u);
    EXPECT_GT(rings.counters.ttl_exhausted, 0u);
    EXPECT_GT(rings.speculative_hops, 0u);
  }
}

TEST(DataPlaneBackendTest, SaveRestoreRightAfterAnInReplayMerge) {
  // The probe lands 1 us after a merged cohort's tick (the node-4 source
  // ticks at 1 + 4j ms; its newcomer merges at 3 + 4j ms), so the store
  // holds a freshly merged cohort: the bytes are the heap's and restoring
  // them leaves the run unchanged.
  for (const std::int64_t j : {5, 12, 19}) {
    SCOPED_TRACE("tick " + std::to_string(j));
    std::vector<Op> script;
    const Graph setup = looping_sources(ms(4), 13, ms(1), ms(121), script);
    const sim::SimTime probe = ms(3 + 4 * j) + us(1);
    const Observed plain = differential(script, probe, setup);
    const Observed cycled = differential(script, probe, setup, true);
    EXPECT_EQ(plain.fates, cycled.fates);
    EXPECT_EQ(plain.bytes, cycled.bytes);
    EXPECT_EQ(plain.events_fired, cycled.events_fired);
    EXPECT_GE(plain.bytes.size(), 89u + 6u * 60u);
  }
}

TEST(DataPlaneBackendTest, RandomLifecyclesInsideTheReplay) {
  // Seed-derived: sources on and off the link lattice with TTLs that keep
  // a few packets per phase alive, control-event injections at source
  // phases (some deferred behind the bridge), idle events and FIB flips
  // on exact lattice ticks, and a probe (some round-tripped) on a tick.
  std::uint64_t speculated = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    const std::int64_t every = 2 * rng.uniform_int(1, 6);
    const bool on_lattice = rng.chance(0.75);
    const sim::SimTime interval =
        ms(every) + (on_lattice ? sim::SimTime::zero() : us(300));
    const int ttl = rng.uniform_int(3, 40);
    std::vector<Op> script;
    Graph setup = looping_sources(interval, ttl, us(1'000 + 100 * (seed % 7)),
                                  ms(241), script);
    setup.sources.push_back(DataPlane::SourceStart{
        .at = ms(1) + us(rng.uniform_int(0, 1'999)), .node = 5});
    const auto lattice = [&] {
      return ms(1 + 2 * rng.uniform_int(1, 110)) +
             (rng.chance(0.5) ? us(500) : sim::SimTime::zero());
    };
    for (int i = 0; i < 12; ++i) {
      Op op;
      switch (rng.next_below(4)) {
        case 0:
          op = inject_at(lattice(), rng.chance(0.5) ? 4 : 3, 0,
                         rng.uniform_int(2, 60));
          break;
        case 1:
          op = idle_at(lattice());
          break;
        case 2:
          op = route_at(lattice(), 3, rng.chance(0.5) ? 2 : 4);
          break;
        default:
          op = route_at(lattice(), 4, rng.chance(0.5) ? 5 : 3);
          break;
      }
      if (rng.chance(0.4)) {
        op.defer = std::min(op.at, ms(2 * rng.uniform_int(1, 3)));
      }
      script.push_back(op);
    }
    const sim::SimTime probe = lattice() + us(1);
    const Observed rings = differential(script, probe, setup, seed % 3 == 0);
    speculated += rings.speculative_hops;
  }
  EXPECT_GT(speculated, 0u);
}

}  // namespace
}  // namespace bgpsim::fwd
