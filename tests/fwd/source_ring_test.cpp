// Source-ring equivalence suite. Traffic sources used to be one
// self-rescheduling queue event per tick; the data plane now serves them
// from a ring behind its external slot and fires them inline with the
// packet hops. The old closure chain survives only here, as the reference
// model: both generators replay the same scripted histories on the same
// plane and must agree on the ledger at every control event — events
// fired, the simulator's seq counter, the clock, the fates with their
// times, the packets sent and the hop-store bytes — and on the final
// state. The suite also covers the ring's checkpoint bytes, its decoder's
// rejections, and the no-scheduling contract of hooks run in a drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fwd/engine.hpp"
#include "fwd/traffic.hpp"
#include "sim/random.hpp"
#include "snap/codec.hpp"
#include "topo/generators.hpp"

namespace bgpsim::fwd {
namespace {

sim::SimTime us(std::int64_t v) { return sim::SimTime::micros(v); }
sim::SimTime ms(std::int64_t v) { return sim::SimTime::millis(v); }

/// The pre-ring generator, kept verbatim in behaviour: every tick is a
/// queue event that injects and then schedules its successor.
class ChainGenerator {
 public:
  ChainGenerator(sim::Simulator& simulator, DataPlane& plane,
                 TrafficConfig config, sim::Rng rng)
      : sim_{simulator}, plane_{plane}, config_{config}, rng_{std::move(rng)} {}

  void set_send_hook(TrafficGenerator::SendHook h) { on_send_ = std::move(h); }

  void start(const std::vector<net::NodeId>& sources, sim::SimTime start) {
    running_ = true;
    if (config_.prefix_count > 1 && !sources.empty()) {
      net::NodeId max_src = 0;
      for (net::NodeId src : sources) max_src = std::max(max_src, src);
      cursor_.assign(max_src + 1, 0);
      for (net::NodeId src : sources) cursor_[src] = src % config_.prefix_count;
    }
    for (net::NodeId src : sources) {
      sim::SimTime first = start;
      if (config_.stagger) {
        first += rng_.uniform_time(sim::SimTime::zero(), config_.interval);
      }
      sim_.schedule_at(first, [this, src] { tick(src); });
    }
  }

  void stop() { running_ = false; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }

 private:
  void tick(net::NodeId source) {
    if (!running_) return;
    ++sent_;
    net::Prefix prefix = 0;
    if (config_.prefix_count > 1) {
      prefix = static_cast<net::Prefix>(cursor_[source] % config_.prefix_count);
      cursor_[source] = prefix + 1;
    }
    if (on_send_) on_send_(source, prefix, sim_.now());
    plane_.inject(Injection{.source = source, .prefix = prefix,
                            .ttl = config_.ttl});
    sim_.schedule_after(config_.interval, [this, source] { tick(source); });
  }

  sim::Simulator& sim_;
  DataPlane& plane_;
  TrafficConfig config_;
  sim::Rng rng_;
  TrafficGenerator::SendHook on_send_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  std::vector<std::uint64_t> cursor_;
};

struct FateRow {
  std::uint64_t id = 0;
  net::Prefix prefix = 0;
  PacketFate fate = PacketFate::kDelivered;
  net::NodeId where = net::kInvalidNode;
  sim::SimTime when;
  bool operator==(const FateRow&) const = default;
};

class FateRecorder final : public FateSink {
 public:
  void on_fates(std::span<const FateRecord> batch) override {
    for (const FateRecord& r : batch) {
      rows.push_back(FateRow{r.packet.id, r.packet.prefix, r.fate, r.where,
                             r.when});
    }
  }
  std::vector<FateRow> rows;
};

struct SendRow {
  net::NodeId source = 0;
  net::Prefix prefix = 0;
  sim::SimTime when;
  bool operator==(const SendRow&) const = default;
};

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The ledger at one control event (or one driver return).
struct Ledger {
  std::uint64_t events_fired = 0;
  std::uint64_t event_seq = 0;
  sim::SimTime now;
  std::size_t fates = 0;
  std::uint64_t sent = 0;
  std::uint64_t hop_bytes = 0;  // FNV-1a of DataPlane::save_state
  bool operator==(const Ledger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Ledger& l) {
  return os << "{fired " << l.events_fired << ", seq " << l.event_seq
            << ", now " << l.now.as_micros() << " us, fates " << l.fates
            << ", sent " << l.sent << ", bytes " << l.hop_bytes << "}";
}

/// One scripted control event.
struct Control {
  enum class Kind : std::uint8_t {
    kProbe,      // record the ledger only
    kRoute,      // fibs[a] -> b for `prefix`
    kClear,      // clear fibs[a]'s route for `prefix`
    kLink,       // set link a-b up/down
    kStop,       // stop the traffic
    kRoundTrip,  // ring generator: save, restore in place, re-save
  };
  Kind kind = Kind::kProbe;
  sim::SimTime at;
  net::NodeId a = 0;
  net::NodeId b = 0;
  net::Prefix prefix = 0;
  bool up = true;
};

/// How the script is driven after setup.
enum class Drive : std::uint8_t { kRun, kRunUntil, kStep };

struct Script {
  net::Topology topo = topo::make_ring(6);
  std::vector<net::NodeId> destinations = {0};
  /// Initial routes (node, next hop, prefix), installed before the run.
  std::vector<std::tuple<net::NodeId, net::NodeId, net::Prefix>> routes;
  TrafficConfig traffic;
  std::uint64_t rng_seed = 7;
  std::vector<net::NodeId> sources;
  sim::SimTime start = ms(1);
  std::vector<Control> controls;
  Drive drive = Drive::kRun;
  std::vector<sim::SimTime> limits;  // kRunUntil: successive limits
  /// kRunUntil: drain the queue after the last limit. Off for runs whose
  /// sources never stop: they end at the last limit.
  bool finish = true;
  /// Ring generator only: at this control-event time, checkpoint the run
  /// and finish it in a freshly built simulator, plane and generator.
  std::optional<sim::SimTime> fresh_restore_at;
};

struct Observed {
  std::vector<Ledger> ledger;
  std::vector<FateRow> fates;
  std::vector<SendRow> sends;
  DataPlane::Counters counters;
  Ledger end;
};

/// Everything one run owns; built twice for the fresh-restore split.
struct World {
  explicit World(const Script& script)
      : topo{script.topo}, fibs(topo.node_count()) {
    DataPlaneOptions options;
    options.destinations = script.destinations;
    plane = std::make_unique<DataPlane>(sim, topo, fibs, std::move(options));
    plane->set_fate_sink(&recorder);
  }
  sim::Simulator sim;
  net::Topology topo;
  std::vector<Fib> fibs;
  std::unique_ptr<DataPlane> plane;
  FateRecorder recorder;
};

Ledger ledger_of(World& w, std::uint64_t sent) {
  snap::Writer bytes;
  w.plane->save_state(bytes);
  return Ledger{w.sim.events_fired(), w.sim.event_seq(), w.sim.now(),
                w.recorder.rows.size(), sent, fnv(std::move(bytes).take())};
}

/// Drive `w.sim` as the script says, recording a ledger at every return.
/// A world restored from a checkpoint at `from` takes the limits after it;
/// the world that wrote the checkpoint stops recording once `ended`.
void drive(const Script& script, World& w, Observed& out,
           const std::function<std::uint64_t()>& sent,
           sim::SimTime from = sim::SimTime::zero(),
           const bool* ended = nullptr) {
  switch (script.drive) {
    case Drive::kRun:
      w.sim.run();
      break;
    case Drive::kRunUntil:
      for (const sim::SimTime limit : script.limits) {
        if (limit < from) continue;
        w.sim.run_until(limit);
        if (ended == nullptr || !*ended) {
          out.ledger.push_back(ledger_of(w, sent()));
        }
      }
      if (script.finish) w.sim.run();
      break;
    case Drive::kStep:
      while (w.sim.step()) out.ledger.push_back(ledger_of(w, sent()));
      break;
  }
}

/// Replay `script` with the ring generator (`ring`) or the reference
/// closure chain.
Observed execute(const Script& script, bool ring) {
  World w{script};
  for (const auto& [node, next, prefix] : script.routes) {
    w.fibs[node].set_next_hop(prefix, next);
  }
  Observed out;
  std::optional<TrafficGenerator> gen;
  std::optional<ChainGenerator> chain;
  if (ring) {
    gen.emplace(w.sim, *w.plane, script.traffic, sim::Rng{script.rng_seed});
  } else {
    chain.emplace(w.sim, *w.plane, script.traffic, sim::Rng{script.rng_seed});
  }
  const auto hook = [&out](net::NodeId src, net::Prefix p, sim::SimTime when) {
    out.sends.push_back(SendRow{src, p, when});
  };
  const auto sent = [&]() -> std::uint64_t {
    return ring ? gen->packets_sent() : chain->packets_sent();
  };
  std::optional<std::vector<std::uint8_t>> checkpoint;
  bool checkpoint_taken = false;

  for (const Control& c : script.controls) {
    w.sim.schedule_at(c.at, [&, c] {
      switch (c.kind) {
        case Control::Kind::kProbe:
          break;
        case Control::Kind::kRoute:
          w.fibs[c.a].set_next_hop(c.prefix, c.b);
          break;
        case Control::Kind::kClear:
          w.fibs[c.a].clear_route(c.prefix);
          break;
        case Control::Kind::kLink:
          w.topo.set_link_state(*w.topo.link_between(c.a, c.b), c.up);
          break;
        case Control::Kind::kStop:
          if (ring) {
            gen->stop();
          } else {
            chain->stop();
          }
          break;
        case Control::Kind::kRoundTrip:
          if (ring) {
            snap::Writer before;
            w.plane->save_state(before);
            gen->save_state(before);
            const std::vector<std::uint8_t> bytes = std::move(before).take();
            snap::Reader r{bytes};
            w.plane->restore_state(r);
            gen->restore_state(r);
            r.finish();
            snap::Writer again;
            w.plane->save_state(again);
            gen->save_state(again);
            EXPECT_EQ(bytes, std::move(again).take());
          }
          break;
      }
      out.ledger.push_back(ledger_of(w, sent()));
      if (ring && script.fresh_restore_at == c.at) {
        snap::Writer cp;
        for (const Fib& f : w.fibs) f.save_state(cp);
        w.plane->save_state(cp);
        gen->save_state(cp);
        checkpoint = std::move(cp).take();
        checkpoint_taken = true;
        w.sim.clear_pending();  // this world ends here
      }
    });
  }
  if (ring) {
    gen->set_send_hook(hook);
    gen->start(script.sources, script.start);
  } else {
    chain->set_send_hook(hook);
    chain->start(script.sources, script.start);
  }
  drive(script, w, out, sent, sim::SimTime::zero(), &checkpoint_taken);

  if (checkpoint) {
    // Finish in a fresh object graph restored from the checkpoint: the
    // clock prologue first, then FIBs, hop store and sources.
    World fresh{script};
    fresh.topo = w.topo;  // link states as of the checkpoint
    fresh.sim.restore_clock(w.sim.now(), w.sim.events_fired(),
                            w.sim.event_seq());
    fresh.recorder.rows = w.recorder.rows;
    TrafficGenerator next{fresh.sim, *fresh.plane, script.traffic,
                          sim::Rng{script.rng_seed}};
    next.set_send_hook(hook);
    snap::Reader r{*checkpoint};
    // No owning network bounds these FIBs: accept every prefix value.
    for (Fib& f : fresh.fibs) f.restore_state(r, net::kMaxPrefixes);
    fresh.plane->restore_state(r);
    next.restore_state(r);
    r.finish();
    drive(script, fresh, out, [&next] { return next.packets_sent(); },
          fresh.sim.now());
    out.fates = fresh.recorder.rows;
    out.counters = fresh.plane->counters();
    out.end = ledger_of(fresh, next.packets_sent());
    return out;
  }
  out.fates = w.recorder.rows;
  out.counters = w.plane->counters();
  out.end = ledger_of(w, sent());
  return out;
}

/// Run `script` both ways and require every observable to agree; returns
/// the ring run.
Observed differential(const Script& script) {
  const Observed reference = execute(script, /*ring=*/false);
  Observed ring = execute(script, /*ring=*/true);
  EXPECT_EQ(reference.ledger.size(), ring.ledger.size());
  for (std::size_t i = 0;
       i < std::min(reference.ledger.size(), ring.ledger.size()); ++i) {
    EXPECT_EQ(reference.ledger[i], ring.ledger[i]) << "at ledger entry " << i;
  }
  EXPECT_EQ(reference.fates, ring.fates);
  EXPECT_EQ(reference.sends, ring.sends);
  EXPECT_EQ(reference.end, ring.end);
  EXPECT_EQ(reference.counters.injected, ring.counters.injected);
  EXPECT_EQ(reference.counters.delivered, ring.counters.delivered);
  EXPECT_EQ(reference.counters.ttl_exhausted, ring.counters.ttl_exhausted);
  EXPECT_EQ(reference.counters.no_route, ring.counters.no_route);
  EXPECT_EQ(reference.counters.link_down, ring.counters.link_down);
  EXPECT_EQ(reference.counters.hops, ring.counters.hops);
  return ring;
}

/// Every node of the 6-ring routes toward node 0 the short way round but
/// nodes 3 and 4, which point at each other: packets from 3 and 4 loop,
/// the rest are delivered.
Script looping_ring() {
  Script s;
  for (net::NodeId v = 1; v < 6; ++v) {
    s.routes.emplace_back(v, v <= 3 ? v - 1 : (v + 1) % 6, 0);
  }
  s.routes.emplace_back(3, 4, 0);
  s.routes.emplace_back(4, 3, 0);
  s.sources = {1, 2, 3, 4, 5};
  return s;
}

Control at(sim::SimTime t, Control::Kind kind) {
  return Control{.kind = kind, .at = t};
}

Control route(sim::SimTime t, net::NodeId a, net::NodeId b,
              net::Prefix prefix = 0) {
  return Control{.kind = Control::Kind::kRoute, .at = t, .a = a, .b = b,
                 .prefix = prefix};
}

TEST(SourceRingTest, SameStaggerMicrosecondFiresInSourceOrder) {
  // Unstaggered, every source ticks at the same microsecond; the ring
  // must fire them in their start order, exactly as their queue events
  // did, and keep doing so after each rotation.
  Script s = looping_ring();
  s.traffic.stagger = false;
  s.traffic.interval = ms(3);
  s.sources = {5, 2, 4, 1, 3};
  s.controls = {at(ms(10), Control::Kind::kProbe),
                at(ms(40), Control::Kind::kStop)};
  const Observed ring = differential(s);
  ASSERT_GE(ring.sends.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.sends[i].source, s.sources[i]);
    EXPECT_EQ(ring.sends[i].when, ms(1));
  }
}

TEST(SourceRingTest, TwoSourcesDrawTheSameStagger) {
  // With a one-microsecond interval the stagger is always 0: both sources
  // share every tick, and the ring alternates them in start order.
  Script s = looping_ring();
  s.traffic.interval = us(1);
  s.traffic.ttl = 3;
  s.sources = {4, 1};
  s.controls = {at(us(1'050), Control::Kind::kProbe),
                at(us(1'200), Control::Kind::kStop)};
  const Observed ring = differential(s);
  ASSERT_GE(ring.sends.size(), 4u);
  EXPECT_EQ(ring.sends[0].when, ring.sends[1].when);
  EXPECT_EQ(ring.sends[0].source, 4u);
  EXPECT_EQ(ring.sends[1].source, 1u);
}

TEST(SourceRingTest, TickAndHopAtTheSameMicrosecondInEitherSeqOrder) {
  // Interval 2 ms = one link: each tick coincides with its predecessor's
  // hop, and the bridge armed for that hop drew its seq before the tick.
  // Interval 4 ms: the tick for t + 4 ms drew its seq at t, before the
  // bridge re-armed for the second hop at t + 2 ms.
  for (const std::int64_t interval : {2, 4}) {
    SCOPED_TRACE("interval " + std::to_string(interval) + " ms");
    Script s = looping_ring();
    s.traffic.stagger = false;
    s.traffic.interval = ms(interval);
    s.controls = {at(ms(13), Control::Kind::kProbe),
                  route(ms(21), 4, 5),
                  at(ms(29), Control::Kind::kProbe),
                  at(ms(61), Control::Kind::kStop)};
    differential(s);
  }
}

TEST(SourceRingTest, StopLetsEveryPendingTickFireOnceAsANoOp) {
  Script s = looping_ring();
  s.traffic.interval = ms(10);
  s.controls = {at(ms(35), Control::Kind::kStop),
                at(ms(36), Control::Kind::kProbe),
                at(ms(46), Control::Kind::kProbe)};
  const Observed ring = differential(s);
  ASSERT_EQ(ring.ledger.size(), 3u);
  // Between 36 ms and 46 ms every source's last tick fires, sending
  // nothing; the only other firings are packet hops.
  EXPECT_EQ(ring.ledger[1].sent, ring.ledger[2].sent);
  EXPECT_GE(ring.ledger[2].events_fired - ring.ledger[1].events_fired,
            s.sources.size());
  // No tick draws a seq after its no-op firing.
  EXPECT_EQ(ring.sends.back().when < ms(35), true);
}

TEST(SourceRingTest, RunUntilLimitExactlyOnATick) {
  // Unstaggered ticks at 1, 4, 7, ... ms: each limit sits exactly on a
  // tick, which fires; the next one, and the hops behind it, do not.
  Script s = looping_ring();
  s.traffic.stagger = false;
  s.traffic.interval = ms(3);
  s.drive = Drive::kRunUntil;
  s.limits = {ms(1), ms(4), ms(7), ms(10), ms(31)};
  s.controls = {at(ms(20), Control::Kind::kProbe),
                at(ms(40), Control::Kind::kStop)};
  const Observed ring = differential(s);
  ASSERT_GE(ring.ledger.size(), 2u);
  EXPECT_EQ(ring.ledger[0].now, ms(1));
  EXPECT_EQ(ring.ledger[0].sent, s.sources.size());
  EXPECT_EQ(ring.ledger[1].now, ms(4));
}

TEST(SourceRingTest, StepFiresOneItemAtATime) {
  Script s = looping_ring();
  s.traffic.interval = ms(5);
  s.drive = Drive::kStep;
  s.controls = {route(ms(12), 3, 2), at(ms(30), Control::Kind::kStop)};
  const Observed ring = differential(s);
  // One ledger entry per step plus one per control event; every step
  // fires exactly one event.
  std::uint64_t last = 0;
  for (const Ledger& l : ring.ledger) {
    EXPECT_LE(l.events_fired - last, 1u);
    last = l.events_fired;
  }
}

TEST(SourceRingTest, MultiPrefixCursorsRoundRobin) {
  Script s = looping_ring();
  s.destinations = {0, 1, 0};  // prefixes 0 and 2 end at node 0, 1 at 1
  for (net::Prefix p = 1; p < 3; ++p) {
    for (net::NodeId v = 2; v < 6; ++v) s.routes.emplace_back(v, v - 1, p);
  }
  s.routes.emplace_back(1, 0, 2);
  s.traffic.prefix_count = 3;
  s.traffic.interval = ms(4);
  s.controls = {route(ms(9), 5, 4, 1), at(ms(17), Control::Kind::kRoundTrip),
                at(ms(30), Control::Kind::kStop)};
  const Observed ring = differential(s);
  // Each source starts at source % 3 and walks the prefixes in turn.
  for (const net::NodeId src : s.sources) {
    net::Prefix expect = src % 3;
    for (const SendRow& row : ring.sends) {
      if (row.source != src) continue;
      EXPECT_EQ(row.prefix, expect);
      expect = (expect + 1) % 3;
    }
  }
}

TEST(SourceRingTest, MidRunSaveRestoreWithTheRingInFlight) {
  // In place: save, restore, re-save at control events while the sources
  // run and after they stop — the bytes are stable and the rest of the
  // run is untouched. Fresh: the checkpoint finishes the run in a new
  // simulator, plane and generator, with the sources still running (the
  // run ends at a run_until limit) or stopped with no-op ticks pending.
  for (const bool stagger : {true, false}) {
    SCOPED_TRACE(stagger ? "staggered" : "unstaggered");
    Script s = looping_ring();
    s.traffic.stagger = stagger;
    s.traffic.interval = ms(3);
    s.controls = {at(ms(8), Control::Kind::kRoundTrip),
                  at(ms(20), Control::Kind::kStop),
                  at(ms(21), Control::Kind::kRoundTrip),
                  at(ms(25), Control::Kind::kProbe)};
    differential(s);

    Script running = s;
    running.controls = {at(ms(8), Control::Kind::kRoundTrip)};
    running.fresh_restore_at = ms(8);
    running.drive = Drive::kRunUntil;
    running.limits = {ms(41)};
    running.finish = false;
    const Observed fresh = differential(running);
    EXPECT_GT(fresh.end.sent, fresh.ledger.front().sent);

    Script stopped = s;
    stopped.controls = {at(ms(8), Control::Kind::kRoundTrip),
                        at(ms(20), Control::Kind::kStop)};
    stopped.fresh_restore_at = ms(20);
    differential(stopped);
  }
}

/// Seed-derived history: random sources, interval, TTL and stagger, with
/// rewires, route clears, link flaps, round trips and probes interleaved,
/// then a stop.
Script random_script(std::uint64_t seed) {
  sim::Rng rng{seed};
  Script s = looping_ring();
  s.rng_seed = seed;
  constexpr std::int64_t kIntervals[] = {1'000, 2'000, 2'500, 3'000, 4'000};
  s.traffic.interval = us(kIntervals[rng.next_below(5)]);
  s.traffic.stagger = rng.chance(0.7);
  constexpr int kTtls[] = {3, 8, 17, kDefaultTtl};
  s.traffic.ttl = kTtls[rng.next_below(4)];
  s.sources.clear();
  for (net::NodeId v = 1; v < 6; ++v) {
    if (rng.chance(0.7)) s.sources.push_back(v);
  }
  s.start = us(static_cast<std::int64_t>(rng.next_below(3'000)));
  for (int i = 0; i < 24; ++i) {
    Control c;
    // Control events land on the millisecond lattice half the time, where
    // they tie with ticks and hops.
    const auto t = static_cast<std::int64_t>(rng.next_below(60'000));
    c.at = us(rng.chance(0.5) ? t - t % 1'000 : t);
    const auto node = static_cast<net::NodeId>(1 + rng.next_below(5));
    switch (rng.next_below(6)) {
      case 0:
      case 1:
        c.kind = Control::Kind::kRoute;
        c.a = node;
        c.b = static_cast<net::NodeId>((node + (rng.chance(0.5) ? 1 : 5)) % 6);
        break;
      case 2:
        c.kind = Control::Kind::kClear;
        c.a = node;
        break;
      case 3:
        c.kind = Control::Kind::kLink;
        c.a = node;
        c.b = static_cast<net::NodeId>((node + 1) % 6);
        c.up = rng.chance(0.5);
        break;
      case 4:
        c.kind = Control::Kind::kRoundTrip;
        break;
      default:
        c.kind = Control::Kind::kProbe;
        break;
    }
    s.controls.push_back(c);
  }
  s.controls.push_back(at(ms(62), Control::Kind::kStop));
  return s;
}

TEST(SourceRingTest, RandomHistoriesMatchTheClosureChain) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    differential(random_script(seed));
  }
}

TEST(SourceRingTest, RandomHistoriesSurviveAFreshRestore) {
  for (std::uint64_t seed = 41; seed <= 52; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Script s = random_script(seed);
    // The checkpoint is the last control event: the stop.
    s.fresh_restore_at = s.controls.back().at;
    differential(s);
  }
}

// ---- checkpoint bytes and their decoder -------------------------------------

/// A plane on the 6-ring with nothing routed (every packet: no route).
struct Rig {
  Rig()
      : topo{topo::make_ring(6)},
        fibs(6),
        plane{sim, topo, fibs, DataPlaneOptions::single(0)} {}
  sim::Simulator sim;
  net::Topology topo;
  std::vector<Fib> fibs;
  DataPlane plane;
};

std::vector<std::uint8_t> sources_bytes(const DataPlane& plane,
                                        const DataPlane::SourcePlan& plan) {
  snap::Writer w;
  plane.save_sources(w, plan);
  return std::move(w).take();
}

TEST(SourceRingTest, QuiescentBytesCarryNoRing) {
  // Before start the bytes are the pre-ring layout: phase 0 (the old
  // "running" flag), the send count, and — multi-prefix only — an empty
  // cursor table.
  Rig b;
  const DataPlane::SourcePlan single{.interval = ms(100)};
  EXPECT_EQ(sources_bytes(b.plane, single).size(), 1u + 8u);
  const DataPlane::SourcePlan multi{.interval = ms(100), .prefix_count = 4};
  EXPECT_EQ(sources_bytes(b.plane, multi).size(), 1u + 8u + 8u);
  // A stop before any start changes nothing.
  b.plane.stop_sources();
  EXPECT_EQ(sources_bytes(b.plane, single),
            (std::vector<std::uint8_t>(9, 0)));
}

/// Hand-built source bytes: phase, sent, then (time, seq, node) ticks.
std::vector<std::uint8_t> ring_blob(
    std::uint8_t phase, std::uint64_t count,
    const std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>>&
        ticks) {
  snap::Writer w;
  w.u8(phase);
  w.u64(0);
  w.u64(count);
  for (const auto& [t, seq, node] : ticks) {
    w.i64(t);
    w.u64(seq);
    w.u32(node);
  }
  return std::move(w).take();
}

TEST(SourceRingTest, DecoderRejectsMalformedRings) {
  Rig b;
  const DataPlane::SourcePlan plan{.interval = ms(10)};
  // Live state to compare against after every rejection.
  b.plane.start_sources(plan, {{ms(2), 1}, {ms(3), 2}});
  b.sim.run_until(ms(5));
  const std::vector<std::uint8_t> live = sources_bytes(b.plane, plan);
  const std::uint64_t drawn = b.sim.event_seq();  // seqs below are drawn

  using Ticks =
      std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>>;
  const std::pair<const char*, std::vector<std::uint8_t>> bad[] = {
      {"unknown phase", ring_blob(3, 0, {})},
      {"unsorted", ring_blob(1, 2, Ticks{{13'000, 1, 2}, {12'000, 2, 1}})},
      {"equal time, unsorted seq",
       ring_blob(1, 2, Ticks{{12'000, 2, 2}, {12'000, 1, 1}})},
      {"duplicate source",
       ring_blob(1, 2, Ticks{{12'000, 1, 1}, {13'000, 2, 1}})},
      {"unknown node", ring_blob(1, 1, Ticks{{12'000, 1, 6}})},
      {"seq not yet drawn", ring_blob(1, 1, Ticks{{12'000, drawn, 1}})},
      {"tick before now",
       ring_blob(1, 1, Ticks{{b.sim.now().as_micros() - 1, 1, 1}})},
      {"more entries than sources", ring_blob(2, 7, Ticks{})},
      {"span over one interval",
       ring_blob(1, 2, Ticks{{6'000, 1, 1}, {16'001, 2, 2}})},
      {"truncated", ring_blob(1, 2, Ticks{{12'000, 1, 1}})},
  };
  for (const auto& [what, blob] : bad) {
    SCOPED_TRACE(what);
    snap::Reader r{blob};
    EXPECT_THROW(b.plane.restore_sources(r, plan), snap::FormatError);
    EXPECT_EQ(sources_bytes(b.plane, plan), live);  // nothing changed
  }
  // Multi-prefix: a ticking source needs a cursor.
  snap::Writer w;
  w.u8(1);
  w.u64(0);
  w.u64(2);  // cursors for nodes 0 and 1
  w.u64(0);
  w.u64(1);
  w.u64(1);
  w.i64(12'000);
  w.u64(1);
  w.u32(2);
  const std::vector<std::uint8_t> blob = std::move(w).take();
  snap::Reader r{blob};
  EXPECT_THROW(b.plane.restore_sources(
                   r, DataPlane::SourcePlan{.interval = ms(10),
                                            .prefix_count = 2}),
               snap::FormatError);
  // The well-formed bytes still restore and re-save identically.
  snap::Reader ok{live};
  b.plane.restore_sources(ok, plan);
  ok.finish();
  EXPECT_EQ(sources_bytes(b.plane, plan), live);
}

TEST(SourceRingTest, StartRejectsWhatTheRingCannotOrder) {
  Rig b;
  const DataPlane::SourcePlan plan{.interval = ms(10)};
  EXPECT_THROW(b.plane.start_sources(plan, {{ms(1), 1}, {ms(12), 2}}),
               std::invalid_argument);  // spans more than one interval
  EXPECT_THROW(b.plane.start_sources(plan, {{ms(1), 1}, {ms(2), 1}}),
               std::invalid_argument);  // duplicate source
  EXPECT_THROW(b.plane.start_sources({.interval = sim::SimTime::zero()},
                                     {{ms(1), 1}}),
               std::invalid_argument);
  b.plane.start_sources(plan, {{ms(1), 1}});
  EXPECT_THROW(b.plane.start_sources(plan, {{ms(1), 2}}), std::logic_error);
  // Once every pending tick has fired, a new start is fine.
  b.plane.stop_sources();
  b.sim.run();
  EXPECT_NO_THROW(b.plane.start_sources(plan, {{ms(20), 2}}));
}

// ---- hooks run inside the drain ---------------------------------------------

TEST(SourceRingTest, SendHookThatSchedulesThrows) {
  Rig b;
  TrafficGenerator gen{b.sim, b.plane, TrafficConfig{}, sim::Rng{3}};
  gen.set_send_hook([&](net::NodeId, net::Prefix, sim::SimTime when) {
    b.sim.schedule_at(when + ms(1), [] {});
  });
  gen.start({1, 2}, ms(1));
  EXPECT_THROW(b.sim.run_until(ms(500)), std::logic_error);
}

TEST(SourceRingTest, FateSinkThatSchedulesThrows) {
  class Scheduling final : public FateSink {
   public:
    explicit Scheduling(sim::Simulator& s) : sim_{s} {}
    void on_fates(std::span<const FateRecord>) override {
      sim_.schedule_after(ms(1), [] {});
    }

   private:
    sim::Simulator& sim_;
  };
  Rig b;
  Scheduling sink{b.sim};
  b.plane.set_fate_sink(&sink);
  TrafficGenerator gen{b.sim, b.plane, TrafficConfig{}, sim::Rng{3}};
  gen.start({1}, ms(1));  // no route: the packet's fate is immediate
  EXPECT_THROW(b.sim.run_until(ms(500)), std::logic_error);
}

}  // namespace
}  // namespace bgpsim::fwd
