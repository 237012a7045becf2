#include "fwd/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace bgpsim::fwd {

namespace {
// -1 = no pin (the rings).
std::atomic<int> g_plane_backend_pin{-1};
}  // namespace

PlaneBackend default_plane_backend() {
  const int pin = g_plane_backend_pin.load(std::memory_order_acquire);
  return pin < 0 ? PlaneBackend::kRings : static_cast<PlaneBackend>(pin);
}

ScopedPlaneBackend::ScopedPlaneBackend(PlaneBackend backend)
    : prev_{g_plane_backend_pin.exchange(static_cast<int>(backend),
                                         std::memory_order_acq_rel)} {}

ScopedPlaneBackend::~ScopedPlaneBackend() {
  g_plane_backend_pin.store(prev_, std::memory_order_release);
}

namespace {

/// A packet that is not speculative yet tries to become so at its first
/// hop and then every this many hops (a power of two): a packet refused
/// at its first hop (its walk meets a link of another delay, or its
/// prefix churns) forwards a few hops before it pays for a walk again.
constexpr int kSpeculateEvery = 8;

/// Walk arena size (nodes) past which the plane reclaims it.
constexpr std::size_t kWalkArenaLimit = std::size_t{1} << 20;

/// Bytes save_state writes per in-flight hop event.
constexpr std::size_t kEventBytes = 60;

template <typename Tick>
bool tick_before(const Tick& a, const Tick& b) {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

}  // namespace

DataPlane::DataPlane(sim::Simulator& simulator, const net::Topology& topology,
                     std::vector<Fib>& fibs, DataPlaneOptions options)
    : sim_{simulator},
      topo_{topology},
      fibs_{fibs},
      destinations_{std::move(options.destinations)},
      backend_{options.backend},
      cache_(topology.node_count() * destinations_.size()),
      prefix_epoch_(destinations_.size(), 1),
      prefix_changed_at_(destinations_.size()),
      spec_per_prefix_(destinations_.size(), 0) {
  assert(fibs_.size() == topo_.node_count());
  assert(!destinations_.empty());
  sim_.set_external_handler([this] { on_slot(); });
  for (net::NodeId node = 0; node < fibs_.size(); ++node) {
    fibs_[node].add_observer(
        [this, node](net::Prefix prefix, std::optional<net::NodeId>,
                     std::optional<net::NodeId>) {
          on_fib_change(node, prefix);
        });
  }
}

std::uint64_t DataPlane::inject(const Injection& injection) {
  assert(injection.prefix < destinations_.size() &&
         destinations_[injection.prefix] != net::kInvalidNode);
  sync_topology();
  Packet p;
  p.id = next_packet_id_++;
  p.source = injection.source;
  p.prefix = injection.prefix;
  p.ttl = injection.ttl;
  p.sent_at = sim_.now();
  ++counters_.injected;
  ++in_flight_;
  // The packet "arrives" at its own source with no delay.
  arrive(injection.source, p, /*spec=*/false);
  flush_fates();
  return p.id;
}

DataPlane::Decision DataPlane::decide(net::NodeId node,
                                      net::Prefix prefix) const {
  Decision d;
  if (prefix < destinations_.size() && destinations_[prefix] == node) {
    d.kind = Decision::Kind::kDeliver;
    return d;
  }
  const std::optional<net::NodeId> nh = fibs_[node].next_hop(prefix);
  if (!nh) {
    d.kind = Decision::Kind::kNoRoute;
    return d;
  }
  const auto link = topo_.link_between(node, *nh);
  if (!link || !topo_.link(*link).up) {
    d.kind = Decision::Kind::kLinkDown;
    return d;
  }
  d.kind = Decision::Kind::kForward;
  d.next_hop = *nh;
  d.delay = topo_.link(*link).delay;
  return d;
}

const DataPlane::Decision& DataPlane::cached_decide(net::NodeId node,
                                                    net::Prefix prefix) const {
  CachedDecision& e = cache_[node * destinations_.size() + prefix];
  const std::uint64_t topo_now = topo_.state_version();
  if (e.topo_stamp != topo_now) {
    e.d = decide(node, prefix);
    e.topo_stamp = topo_now;
  }
  return e.d;
}

void DataPlane::arrive(net::NodeId node, const Packet& packet, bool spec) {
  const Decision& d = cached_decide(node, packet.prefix);
  if (d.kind != Decision::Kind::kForward) {
    finish(packet, packet.ttl, packet.hops_taken, d.fate(), node, spec,
           sim_.now());
    return;
  }
  // One TTL decrement per AS hop (the study's loop indicator).
  const int ttl = packet.ttl - 1;
  if (ttl <= 0) {
    finish(packet, ttl, packet.hops_taken, PacketFate::kTtlExhausted, node,
           spec, sim_.now());
    return;
  }
  const int hops = packet.hops_taken + 1;
  ++counters_.hops;
  if (!spec && backend_ == PlaneBackend::kRings &&
      (hops == 1 || (hops & (kSpeculateEvery - 1)) == 0)) {
    spec = speculate(d.next_hop, packet.prefix);
  }
  push_hop(sim_.now() + d.delay, d.next_hop, packet, ttl, hops, spec);
}

void DataPlane::finish(const Packet& p, int ttl, int hops, PacketFate fate,
                       net::NodeId where, bool spec, sim::SimTime when) {
  assert(in_flight_ > 0);
  --in_flight_;
  if (spec) count_spec(p.prefix, false);
  switch (fate) {
    case PacketFate::kDelivered:
      ++counters_.delivered;
      break;
    case PacketFate::kTtlExhausted:
      ++counters_.ttl_exhausted;
      break;
    case PacketFate::kNoRoute:
      ++counters_.no_route;
      break;
    case PacketFate::kLinkDown:
      ++counters_.link_down;
      break;
  }
  if (sink_ != nullptr) {
    FateRecord& r = batch_.emplace_back();
    r.packet = p;
    r.packet.ttl = ttl;
    r.packet.hops_taken = hops;
    r.fate = fate;
    r.where = where;
    r.when = when;
  }
}

void DataPlane::flush_fates() {
  if (batch_.empty()) return;
  sink_->on_fates(batch_);
  batch_.clear();
}

void DataPlane::save_state(snap::Writer& w) const {
  assert(batch_.empty());  // saves run from control events, never mid-drain
  w.u64(next_seq_);
  w.u64(next_packet_id_);
  w.u64(in_flight_);
  w.u64(counters_.injected);
  w.u64(counters_.delivered);
  w.u64(counters_.ttl_exhausted);
  w.u64(counters_.no_route);
  w.u64(counters_.link_down);
  w.u64(counters_.hops);
  w.b(bridge_armed_);
  w.time(bridge_time_);
  if (bridge_armed_) w.u64(bridge_seq_);
  const auto write_event = [&w](const HopEvent& ev) {
    w.time(ev.at);
    w.u64(ev.seq);
    w.u32(ev.node);
    w.u64(ev.packet.id);
    w.u32(ev.packet.source);
    w.u32(ev.packet.prefix);
    w.i64(ev.packet.ttl);
    w.time(ev.packet.sent_at);
    w.i64(ev.packet.hops_taken);
  };
  if (backend_ == PlaneBackend::kRings) {
    // Rings are already ascending by (at, seq): tick cohorts are sorted
    // and each cohort holds its packets in seq order — the same canonical
    // bytes the heap path writes. Skipped cohorts are written settled.
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < rings_.size(); ++t) {
      n += rings_[t].items.size() - rings_[t].head;
    }
    w.u64(n);
    for (std::size_t t = 0; t < rings_.size(); ++t) {
      const TickRing& r = rings_[t];
      for (std::size_t i = r.head; i < r.items.size(); ++i) {
        write_event(settled(rings_.hot(t), r, i));
      }
    }
  } else {
    auto heap = heap_;  // drain a copy: ascending, deterministic order
    w.u64(heap.size());
    while (!heap.empty()) {
      write_event(heap.top());
      heap.pop();
    }
  }
}

void DataPlane::restore_state(snap::Reader& r) {
  const auto fail = [](const std::string& what) {
    throw snap::FormatError{"data plane: " + what};
  };
  const std::uint64_t next_seq = r.u64();
  const std::uint64_t next_packet_id = r.u64();
  const std::uint64_t in_flight = r.u64();
  Counters counters;
  counters.injected = r.u64();
  counters.delivered = r.u64();
  counters.ttl_exhausted = r.u64();
  counters.no_route = r.u64();
  counters.link_down = r.u64();
  counters.hops = r.u64();
  const bool armed = r.b();
  const sim::SimTime bridge_time = r.time();
  std::uint64_t bridge_seq = 0;
  if (armed) {
    bridge_seq = r.u64();
    if (bridge_time < sim_.now() || bridge_seq >= sim_.event_seq()) {
      fail("bridge armed before now or with an undrawn seq");
    }
  }
  const std::uint64_t n = r.count(kEventBytes);
  if (n != in_flight) {
    fail("in-flight count " + std::to_string(in_flight) + " differs from the " +
         std::to_string(n) + " stored event(s)");
  }
  if (n != 0 && !armed) fail("events stored with the bridge disarmed");
  std::vector<HopEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    HopEvent ev;
    ev.at = r.time();
    ev.seq = r.u64();
    ev.node = r.u32();
    ev.packet.id = r.u64();
    ev.packet.source = r.u32();
    ev.packet.prefix = snap::read_prefix(r);
    const std::int64_t ttl = r.i64();
    ev.packet.ttl = static_cast<int>(ttl);
    ev.packet.sent_at = r.time();
    ev.packet.hops_taken = static_cast<int>(r.i64());
    if (ev.node >= topo_.node_count()) {
      fail("event at unknown node " + std::to_string(ev.node));
    }
    if (ev.packet.prefix >= destinations_.size() ||
        destinations_[ev.packet.prefix] == net::kInvalidNode) {
      fail("event for prefix " + std::to_string(ev.packet.prefix) +
           " without a destination");
    }
    if (ev.at < sim_.now()) fail("event before now");
    if (ev.seq >= next_seq) fail("event seq not yet drawn");
    if (!events.empty() && !tick_before(events.back(), ev)) {
      fail("events out of (at, seq) order");
    }
    if (ttl < 1 || ttl > std::numeric_limits<int>::max()) {
      fail("event TTL " + std::to_string(ttl) + " out of range");
    }
    events.push_back(std::move(ev));
  }
  next_seq_ = next_seq;
  next_packet_id_ = next_packet_id;
  in_flight_ = static_cast<std::size_t>(in_flight);
  counters_ = counters;
  bridge_armed_ = armed;
  bridge_time_ = bridge_time;
  if (armed) bridge_seq_ = bridge_seq;
  heap_ = {};
  rings_.clear();
  spec_items_ = 0;
  std::ranges::fill(spec_per_prefix_, 0);
  for (HopEvent& ev : events) {
    if (backend_ == PlaneBackend::kRings) {
      admit(cohort_at(ev.at), ev.seq, ev.node, /*spec=*/false, ev.packet,
            ev.packet.ttl, ev.packet.hops_taken);
    } else {
      heap_.push(std::move(ev));
    }
  }
  sync_slot();
}

void DataPlane::push_hop(sim::SimTime at, net::NodeId node,
                         const Packet& packet, int ttl, int hops, bool spec) {
  if (backend_ == PlaneBackend::kRings) {
    admit(cohort_at(at), next_seq_++, node, spec, packet, ttl, hops);
  } else {
    HopEvent ev{at, next_seq_++, node, false, packet};
    ev.packet.ttl = ttl;
    ev.packet.hops_taken = hops;
    heap_.push(ev);
  }
  rearm();
}

std::size_t DataPlane::cohort_at(sim::SimTime at) {
  // Uniform link delays make the back cohort the overwhelmingly common
  // target; anything else walks back from the end (heterogeneous delays
  // stay correct, they just pay a short scan).
  std::size_t t = rings_.size();
  if (t != 0 && at == rings_.hot(t - 1).at) return t - 1;
  while (t != 0 && rings_.hot(t - 1).at > at) --t;
  if (t != 0 && rings_.hot(t - 1).at == at) return t - 1;
  rings_.open(t, at);
  return t;
}

void DataPlane::admit(std::size_t t, std::uint64_t seq, net::NodeId node,
                      bool spec, const Packet& packet, int ttl, int hops) {
  Hot& hot = rings_.hot(t);
  TickRing& ring = rings_[t];
  settle(hot, ring);
  join(hot, ring.items.empty(), node, packet.prefix, ttl, spec);
  ring.spec_count += spec ? 1 : 0;
  // Built in place, field by field: copying a packet right after narrow
  // stores to it would stall on store forwarding.
  HopEvent& ev = ring.items.emplace_back();
  ev.at = hot.at;
  ev.seq = seq;
  ev.node = node;
  ev.spec = spec;
  ev.packet.id = packet.id;
  ev.packet.source = packet.source;
  ev.packet.prefix = packet.prefix;
  ev.packet.ttl = ttl;
  ev.packet.sent_at = packet.sent_at;
  ev.packet.hops_taken = hops;
}

void DataPlane::TickQueue::open(std::size_t i, sim::SimTime at) {
  if (count_ == ring_.size()) {
    std::vector<Hot> grown(std::max<std::size_t>(16, 2 * count_));
    for (std::size_t j = 0; j < count_; ++j) {
      grown[j] = ring_[(first_ + j) & mask()];
    }
    ring_ = std::move(grown);
    first_ = 0;
  }
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  TickRing& fresh = slab_[slot];
  fresh.head = 0;
  fresh.items.clear();
  fresh.spec_count = 0;
  Hot& entry = ring_[(first_ + count_++) & mask()];
  entry = Hot{};
  entry.at = at;
  entry.slot = slot;
  for (std::size_t j = count_ - 1; j > i; --j) {
    std::swap(ring_[(first_ + j) & mask()], ring_[(first_ + j - 1) & mask()]);
  }
}

void DataPlane::TickQueue::pop_front() {
  free_.push_back(ring_[first_].slot);
  first_ = (first_ + 1) & mask();
  --count_;
}

void DataPlane::TickQueue::sink_front(std::size_t i) {
  for (std::size_t j = 0; j < i; ++j) {
    std::swap(ring_[(first_ + j) & mask()], ring_[(first_ + j + 1) & mask()]);
  }
}

void DataPlane::TickQueue::clear() {
  while (count_ != 0) pop_front();
}

const sim::SimTime* DataPlane::next_pending_at() const {
  if (backend_ == PlaneBackend::kRings) {
    // Only the front cohort can be part-drained; skip it once exhausted.
    for (std::size_t t = 0; t < rings_.size(); ++t) {
      if (rings_[t].head < rings_[t].items.size()) return &rings_.hot(t).at;
    }
    return nullptr;
  }
  return heap_.empty() ? nullptr : &heap_.top().at;
}

void DataPlane::arm_at(sim::SimTime at) {
  if (bridge_armed_ && bridge_time_ <= at) return;  // armed early enough
  // Every (re-)arming draws a fresh tie-break seq — exactly the ordering
  // a cancel-and-reschedule through the queue would produce.
  bridge_armed_ = true;
  bridge_time_ = at;
  bridge_seq_ = sim_.take_seq();
  if (!sim_.in_external_handler()) sync_slot();  // on_slot syncs at its end
}

void DataPlane::rearm() {
  if (const sim::SimTime* next = next_pending_at()) arm_at(*next);
}

void DataPlane::on_slot() {
  // No control event runs until this handler returns, so the topology is
  // checked once for the whole drain.
  sync_topology();
  bool bridge = bridge_next();
  for (;;) {
    if (bridge) {
      fire_bridge();
    } else {
      fire_source();
    }
    if (spec_items_ != 0) skip_ahead();
    bridge = bridge_next();
    if (!bridge && src_live_ == 0) break;
    const SourceTick* tick = bridge ? nullptr : &src_[src_head_];
    if (!sim_.fire_external_inline(bridge ? bridge_time_ : tick->at,
                                   bridge ? bridge_seq_ : tick->seq)) {
      break;
    }
  }
  sync_slot();
}

void DataPlane::fire_bridge() {
  bridge_armed_ = false;
  drain_due();
  rearm();
  flush_fates();
}

void DataPlane::skip_ahead() {
  // Replay the plane's next items inline while no control event can come
  // between them: the bridge's firings of promoted cohorts, its re-armed
  // firings that find nothing due, and the source ticks in between. Every
  // seq the bridge draws here is newer than the next queued event's, so a
  // firing at exactly that event's time would come after it — hence the
  // strict bound, which the source ticks keep too.
  const sim::SimTime horizon = sim_.external_horizon();
  for (;;) {
    if (!bridge_next()) {
      if (src_live_ == 0 || !(src_[src_head_].at < horizon)) break;
      // The tick draws seqs (its injection's arming, then its own), so the
      // firings replayed before it draw theirs first.
      credit_replay();
      const SourceTick& tick = src_[src_head_];
      [[maybe_unused]] const bool fired =
          sim_.fire_external_inline(tick.at, tick.seq);
      assert(fired);
      fire_source();
      continue;
    }
    if (!(bridge_time_ < horizon) || rings_.empty() || rings_[0].head != 0) {
      break;
    }
    const sim::SimTime tick = rings_.hot(0).at;
    if (tick != bridge_time_) {
      replay_firing(bridge_time_, &tick);  // the re-armed firing: none due
      continue;
    }
    // Before the next source tick nothing comes between the bridge's
    // firings: fire a window up to it. At the tick's time exactly, the
    // bridge fires first (by seq) and the tick may come between that
    // firing and its re-armed second one.
    if (src_live_ == 0 || tick < src_[src_head_].at) {
      const sim::SimTime bound =
          src_live_ == 0 ? horizon : std::min(horizon, src_[src_head_].at);
      if (!fire_window(bound)) break;
    } else if (!fire_front(/*fold=*/false)) {
      break;
    }
  }
  credit_replay();
}

bool DataPlane::fire_window(sim::SimTime bound) {
  // While the front cohorts move whole and each lands behind the back
  // one, the queue only turns: firing j of them is rotating it by j. Each
  // cohort's effect is closed-form (one more lag, one delay later, its
  // seqs the next k of a running sum), and its packets stay untouched
  // until something settles the cohort. A cohort that merges or retires
  // packets takes one step (fire_front), and the turning goes on.
  std::uint64_t seq = next_seq_;
  std::uint64_t firings = 0;
  bool stopped = false;
  rings_.turn(
      [&](Hot& hot, sim::SimTime back) {
        if (!(hot.at < bound) || hot.left < 1 ||
            !(back < hot.at + hot.delay())) {
          return false;
        }
        // A cohort of several forwarding packets fires its tick twice
        // (the first of them re-arms at now); each firing draws one seq.
        firings += hot.k > 1 ? 2 : 1;
        hot.skip(seq);
        seq += hot.k;
        return true;
      },
      [&] {
        if (firings != 0) {
          const Hot& fired = rings_.hot(rings_.size() - 1);  // the last
          const std::uint64_t hops = seq - next_seq_;
          next_seq_ = seq;
          counters_.hops += hops;
          speculative_hops_ += hops;
          replay_firings_ += firings;
          replay_draws_ += firings;
          replay_last_ = fired.at - fired.delay();
          bridge_time_ = rings_.hot(0).at;
          bridge_seq_ = sim_.event_seq() + replay_draws_ - 1;
          firings = 0;
        }
        if (rings_.empty() || !(rings_.hot(0).at < bound)) return false;
        stopped = !fire_front(/*fold=*/true);
        seq = next_seq_;
        return !stopped;
      });
  return !stopped;
}

bool DataPlane::fire_front(bool fold) {
  if (rings_.hot(0).left < 0 &&
      (rings_[0].spec_count == 0 || !promote())) {
    return false;  // a packet that does not speculate: drain for real
  }
  const sim::SimTime tick = rings_.hot(0).at;
  const bool twice = step_front(tick);
  const sim::SimTime next = rings_.empty() ? tick : rings_.hot(0).at;
  const sim::SimTime* rearm = rings_.empty() ? nullptr : &next;
  replay_firing(tick, twice ? &tick : rearm);
  if (!batch_.empty()) {
    // The sink runs after the tick's first firing, the clock at the tick.
    credit_replay();
    flush_fates();
  }
  if (twice && fold) replay_firing(tick, rearm);
  return true;
}

bool DataPlane::step_front(sim::SimTime when) {
  const Hot& front = rings_.hot(0);
  if (front.left < 1) return retire_ending(when);
  const std::uint32_t k = front.k;
  move_front(k, front.left);
  return k > 1;
}

void DataPlane::replay_firing(sim::SimTime at, const sim::SimTime* rearm) {
  ++replay_firings_;
  replay_last_ = at;
  bridge_armed_ = rearm != nullptr;
  if (rearm != nullptr) {
    bridge_time_ = *rearm;
    bridge_seq_ = sim_.event_seq() + replay_draws_++;
  }
}

void DataPlane::credit_replay() {
  if (replay_draws_ != 0) {
    [[maybe_unused]] const std::uint64_t last = sim_.take_seqs(replay_draws_);
    assert(!bridge_armed_ || last == bridge_seq_);
    replay_draws_ = 0;
  }
  if (replay_firings_ != 0) {
    sim_.credit_external(replay_firings_, replay_last_);
    replay_firings_ = 0;
  }
}

void DataPlane::fire_source() {
  SourceTick& tick = src_[src_head_];
  src_head_ = src_head_ + 1 == src_.size() ? 0 : src_head_ + 1;
  if (src_phase_ != SourcePhase::kRunning) {
    --src_live_;  // a stopped source's last tick: a counted no-op
    return;
  }
  ++src_sent_;
  net::Prefix prefix = 0;
  if (src_plan_.prefix_count > 1) {
    std::uint64_t& cursor = src_cursor_[tick.node];
    prefix = static_cast<net::Prefix>(cursor % src_plan_.prefix_count);
    cursor = prefix + 1;
  }
  if (on_send_) on_send_(tick.node, prefix, tick.at);
  inject(Injection{.source = tick.node, .prefix = prefix, .ttl = src_plan_.ttl});
  // The next tick is ordered as if scheduled now, after the injection
  // (which may have drawn a seq for the bridge first).
  tick.at += src_plan_.interval;
  tick.seq = sim_.take_seq();
}

void DataPlane::sync_slot() {
  if (bridge_next()) {
    sim_.arm_external(bridge_time_, bridge_seq_);
  } else if (src_live_ != 0) {
    sim_.arm_external(src_[src_head_].at, src_[src_head_].seq);
  } else {
    sim_.disarm_external();
  }
}

void DataPlane::start_sources(const SourcePlan& plan,
                              const std::vector<SourceStart>& starts) {
  if (src_live_ != 0) {
    throw std::logic_error{
        "DataPlane::start_sources: an earlier start still has ticks pending"};
  }
  if (plan.interval <= sim::SimTime::zero()) {
    throw std::invalid_argument{"DataPlane::start_sources: interval <= 0"};
  }
  std::vector<bool> seen(topo_.node_count());
  for (const SourceStart& s : starts) {
    if (s.node >= seen.size() || seen[s.node]) {
      throw std::invalid_argument{
          "DataPlane::start_sources: unknown or duplicate source"};
    }
    seen[s.node] = true;
    if (s.at < sim_.now()) {
      throw std::invalid_argument{
          "DataPlane::start_sources: first tick in the past"};
    }
  }
  std::vector<SourceTick> ring;
  ring.reserve(starts.size());
  for (const SourceStart& s : starts) {
    ring.push_back(SourceTick{s.at, sim_.take_seq(), s.node});
  }
  std::ranges::sort(ring, tick_before<SourceTick>);
  if (!ring.empty() && ring.back().at - ring.front().at > plan.interval) {
    // A fired tick must land behind every pending one for the ring to
    // keep firing order by rotation.
    throw std::invalid_argument{
        "DataPlane::start_sources: first ticks span more than one interval"};
  }
  src_plan_ = plan;
  src_phase_ = SourcePhase::kRunning;
  src_ = std::move(ring);
  src_head_ = 0;
  src_live_ = src_.size();
  if (plan.prefix_count > 1 && !starts.empty()) {
    // Round-robin cursors: source s starts at prefix s % P, so the first
    // tick of the whole network already spreads over the prefix set.
    net::NodeId max_src = 0;
    for (const SourceStart& s : starts) max_src = std::max(max_src, s.node);
    src_cursor_.assign(max_src + 1, 0);
    for (const SourceStart& s : starts) {
      src_cursor_[s.node] = s.node % plan.prefix_count;
    }
  }
  sync_slot();
}

void DataPlane::stop_sources() {
  if (src_phase_ == SourcePhase::kRunning) src_phase_ = SourcePhase::kStopped;
}

void DataPlane::save_sources(snap::Writer& w, const SourcePlan& plan) const {
  w.u8(static_cast<std::uint8_t>(src_phase_));
  w.u64(src_sent_);
  if (plan.prefix_count > 1) {
    w.u64(src_cursor_.size());
    for (const std::uint64_t c : src_cursor_) w.u64(c);
  }
  if (src_phase_ == SourcePhase::kIdle) return;
  w.u64(src_live_);
  for (std::size_t i = 0; i < src_live_; ++i) {
    const SourceTick& s = src_[(src_head_ + i) % src_.size()];
    w.time(s.at);
    w.u64(s.seq);
    w.u32(s.node);
  }
}

void DataPlane::restore_sources(snap::Reader& r, const SourcePlan& plan) {
  const auto fail = [](const std::string& what) {
    throw snap::FormatError{"data plane sources: " + what};
  };
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(SourcePhase::kStopped)) {
    fail("unknown phase " + std::to_string(phase));
  }
  const std::uint64_t sent = r.u64();
  const std::size_t nodes = topo_.node_count();
  std::vector<std::uint64_t> cursor;
  if (plan.prefix_count > 1) {
    const std::uint64_t n = r.u64();
    if (n > nodes) fail("more prefix cursors than nodes");
    cursor.resize(static_cast<std::size_t>(n));
    for (std::uint64_t& c : cursor) c = r.u64();
  }
  std::vector<SourceTick> ring;
  if (phase != static_cast<std::uint8_t>(SourcePhase::kIdle)) {
    const std::uint64_t n = r.u64();
    if (n > nodes) fail("more pending ticks than sources");
    ring.reserve(static_cast<std::size_t>(n));
    std::vector<bool> seen(nodes);
    for (std::uint64_t i = 0; i < n; ++i) {
      SourceTick s;
      s.at = r.time();
      s.seq = r.u64();
      s.node = r.u32();
      if (s.node >= nodes || seen[s.node]) fail("unknown or duplicate source");
      if (plan.prefix_count > 1 && s.node >= cursor.size()) {
        fail("source without a prefix cursor");
      }
      if (s.at < sim_.now()) fail("tick before now");
      if (s.seq >= sim_.event_seq()) fail("seq not yet drawn");
      if (!ring.empty() && !tick_before(ring.back(), s)) {
        fail("ticks out of firing order");
      }
      seen[s.node] = true;
      ring.push_back(s);
    }
    if (!ring.empty() && ring.back().at - ring.front().at > plan.interval) {
      fail("ticks span more than one interval");
    }
  }
  src_phase_ = static_cast<SourcePhase>(phase);
  src_plan_ = plan;
  src_sent_ = sent;
  src_cursor_ = std::move(cursor);
  src_ = std::move(ring);
  src_head_ = 0;
  src_live_ = src_.size();
  sync_slot();
}

void DataPlane::drain_due() {
  const sim::SimTime now = sim_.now();
  if (backend_ == PlaneBackend::kRings) {
    while (!rings_.empty() && rings_.hot(0).at <= now) {
      TickRing& front = rings_[0];
      if (front.head >= front.items.size()) {
        rings_.pop_front();
        continue;
      }
      if (front.head == 0 && front.spec_count != 0 &&
          (rings_.hot(0).left >= 0 || promote())) {
        // Hop by hop, the first of several forwarding packets would
        // re-arm the bridge at now; the promoted cohort arms it the same
        // way.
        if (step_front(now)) arm_at(now);
        continue;
      }
      if (rings_.hot(0).lag != 0) settle(0);
      // Copy out before advancing; arrive() may grow this cohort's vector
      // (zero-delay links) or insert new cohorts.
      const HopEvent ev = front.items[front.head++];
      arrive(ev.node, ev.packet, ev.spec);
    }
    return;
  }
  while (!heap_.empty() && heap_.top().at <= now) {
    // Copy out before pop; arrive() may push new hops.
    const HopEvent ev = heap_.top();
    heap_.pop();
    arrive(ev.node, ev.packet, /*spec=*/false);
  }
}

// ---- speculative delivery -------------------------------------------------

const DataPlane::Walk& DataPlane::walk_for(net::NodeId node,
                                           net::Prefix prefix) {
  const std::size_t stride = destinations_.size();
  const std::uint64_t epoch = prefix_epoch_[prefix];
  const std::uint64_t topo = topo_.state_version();
  if (++visit_epoch_ == 0) {
    std::ranges::fill(visit_stamp_, 0);
    visit_epoch_ = 1;
  }
  // Follow the forwarding graph until it repeats a node (a cycle), meets a
  // node that does not forward (the terminal, kept on the path), or meets
  // a link of another delay (no speculation).
  const auto path = static_cast<std::uint32_t>(walk_nodes_.size());
  std::uint32_t len = 0;
  std::uint32_t tail = 0;
  std::uint32_t cycle = 0;
  sim::SimTime delay;
  for (net::NodeId v = node;; ++len) {
    if (visit_stamp_[v] == visit_epoch_) {
      tail = visit_index_[v];
      cycle = len - tail;
      break;
    }
    const Decision& d = cached_decide(v, prefix);
    if (d.kind != Decision::Kind::kForward) {
      walk_nodes_.push_back(v);
      tail = len + 1;
      break;
    }
    if (d.delay <= sim::SimTime::zero() || (len != 0 && d.delay != delay)) {
      break;
    }
    delay = d.delay;
    visit_stamp_[v] = visit_epoch_;
    visit_index_[v] = len;
    walk_nodes_.push_back(v);
    v = d.next_hop;
  }
  // Every node on the path shares the verdict: each one's own walk is the
  // rest of this path (a terminal's is itself).
  const std::uint64_t magic =
      cycle == 0 ? 0 : ~std::uint64_t{0} / cycle + 1;
  walks_[node * stride + prefix] = Walk{epoch, topo, path, 0, 0, 0, 0, delay};
  const std::uint32_t entries = cycle == 0 && tail != 0 ? tail : len;
  for (std::uint32_t i = 0; i < entries; ++i) {
    walks_[walk_nodes_[path + i] * stride + prefix] =
        Walk{epoch, topo, path, i, tail, cycle, magic, delay};
  }
  if (cycle == 0 && tail == 0) walk_nodes_.resize(path);
  return walks_[node * stride + prefix];
}

net::NodeId DataPlane::walk_node(const Walk& w, std::uint32_t steps) const {
  std::uint32_t i = w.start + steps;
  if (i >= w.tail) {  // never on an ending walk: steps stop at its terminal
    // (i - tail) mod cycle by Lemire's fastmod: exact for 32-bit operands.
    const std::uint64_t low = w.cycle_magic * (i - w.tail);
    i = w.tail + static_cast<std::uint32_t>(
                     (static_cast<unsigned __int128>(low) * w.cycle) >> 64);
  }
  return walk_nodes_[w.path + i];
}

bool DataPlane::walk_touches(const Walk& w, net::NodeId node) const {
  for (std::uint32_t i = std::min(w.start, w.tail); i < w.tail + w.cycle;
       ++i) {
    if (walk_nodes_[w.path + i] == node) return true;
  }
  return false;
}

bool DataPlane::speculate(net::NodeId node, net::Prefix prefix) {
  if (walks_.empty()) {
    walks_.resize(topo_.node_count() * destinations_.size());
    visit_stamp_.assign(topo_.node_count(), 0);
    visit_index_.assign(topo_.node_count(), 0);
  }
  // The churn gate: an ending walk speculates only if it has a hop left to
  // skip and its prefix's forwarding state is older than the walk takes to
  // cross, because while any packet of the prefix speculates, each FIB
  // change of it scans every speculative cohort. A stale memo is rebuilt
  // only on state older than one link delay, the shortest crossing, so a
  // churning prefix costs a comparison.
  const sim::SimTime age = sim_.now() - prefix_changed_at_[prefix];
  const Walk* w = &walks_[node * destinations_.size() + prefix];
  if (w->epoch != prefix_epoch_[prefix] || w->topo != topo_.state_version()) {
    if (age <= cached_decide(node, prefix).delay) return false;
    w = &walk_for(node, prefix);
  }
  if (w->cycle == 0 &&
      (w->tail <= w->start + 1 ||  // neither form, or at the terminal
       age <= w->delay * static_cast<std::int64_t>(w->tail - 1 - w->start))) {
    return false;
  }
  count_spec(prefix, true);
  return true;
}

void DataPlane::count_spec(net::Prefix prefix, bool added) {
  if (added) {
    if (spec_items_ == 0) spec_topo_ = topo_.state_version();
    ++spec_items_;
    ++spec_per_prefix_[prefix];
  } else {
    --spec_items_;
    --spec_per_prefix_[prefix];
  }
}

DataPlane::HopEvent DataPlane::settled(const Hot& hot, const TickRing& ring,
                                       std::size_t i) const {
  HopEvent ev = ring.items[i];
  if (hot.lag == 0) return ev;
  const Walk& w = walks_[ev.node * destinations_.size() + ev.packet.prefix];
  ev.at = hot.at;
  ev.seq = hot.seq_base + (i - ring.head);
  ev.node = walk_node(w, hot.lag);
  ev.packet.ttl -= static_cast<int>(hot.lag);
  ev.packet.hops_taken += static_cast<int>(hot.lag);
  return ev;
}

void DataPlane::settle(Hot& hot, TickRing& ring) {
  if (hot.lag == 0) return;
  settle_items(hot, ring.items.data() + ring.head,
               ring.items.size() - ring.head);
  hot.lag = 0;
}

void DataPlane::settle_items(const Hot& hot, HopEvent* items,
                             std::size_t n) const {
  const std::size_t stride = destinations_.size();
  const auto lag = static_cast<int>(hot.lag);
  for (std::size_t i = 0; i < n; ++i) {
    HopEvent& ev = items[i];
    ev.at = hot.at;
    ev.seq = hot.seq_base + i;
    ev.node = walk_node(walks_[ev.node * stride + ev.packet.prefix], hot.lag);
    ev.packet.ttl -= lag;
    ev.packet.hops_taken += lag;
  }
}

bool DataPlane::promote() {
  // The front cohort's packets must all follow known walks, and those
  // that move on must share one delay; promote the ones that do not
  // speculate yet.
  TickRing& ring = rings_[0];
  Hot& hot = rings_.hot(0);
  if (ring.spec_count == 0) return false;
  assert(hot.lag == 0 && ring.head == 0);
  const std::size_t stride = destinations_.size();
  int left = std::numeric_limits<int>::max();
  sim::SimTime delay;
  for (HopEvent& ev : ring.items) {
    if (!ev.spec) {
      if (!speculate(ev.node, ev.packet.prefix)) return false;
      ev.spec = true;
      ++ring.spec_count;
    }
    const Walk& w = walks_[ev.node * stride + ev.packet.prefix];
    const int reach = w.reach(ev.packet.ttl);
    if (reach != 0) {
      if (delay != sim::SimTime::zero() && w.delay != delay) return false;
      delay = w.delay;
    }
    left = std::min(left, reach);
  }
  // The queue entry's narrow fields bound what may move whole; anything
  // beyond (absurd TTLs, delays or cohort sizes) goes hop by hop.
  if (left > std::numeric_limits<std::int16_t>::max() ||
      delay.as_micros() > std::numeric_limits<std::uint32_t>::max() ||
      ring.items.size() > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  hot.k = static_cast<std::uint32_t>(ring.items.size());
  hot.delay_us = static_cast<std::uint32_t>(delay.as_micros());
  hot.left = static_cast<std::int16_t>(left);
  return true;
}

void DataPlane::join(Hot& hot, bool fresh, net::NodeId node,
                     net::Prefix prefix, int ttl, bool spec) const {
  if (!spec || (!fresh && hot.left < 0)) {
    hot.left = -1;
    return;
  }
  const Walk& w = walks_[node * destinations_.size() + prefix];
  const int reach = w.reach(ttl);
  // A promoted cohort's delay is zero only while none of its packets
  // moves on.
  std::int64_t delay_us = fresh ? 0 : hot.delay_us;
  if (reach != 0) {
    if (delay_us != 0 && delay_us != w.delay.as_micros()) {
      hot.left = -1;
      return;
    }
    delay_us = w.delay.as_micros();
  }
  const int left = fresh ? reach : std::min<int>(hot.left, reach);
  if (left > std::numeric_limits<std::int16_t>::max() ||
      delay_us > std::numeric_limits<std::uint32_t>::max() ||
      (!fresh && hot.k == std::numeric_limits<std::uint32_t>::max())) {
    hot.left = -1;
    return;
  }
  hot.k = fresh ? 1 : hot.k + 1;
  hot.delay_us = static_cast<std::uint32_t>(delay_us);
  hot.left = static_cast<std::int16_t>(left);
}

void DataPlane::relocate_front() {
  const sim::SimTime at = rings_.hot(0).at;
  std::size_t i = rings_.size();
  while (rings_.hot(i - 1).at > at) --i;  // stops at the front itself
  if (i == 1 || rings_.hot(i - 1).at != at) {
    rings_.sink_front(i - 1);
    return;
  }
  // Packets already due at that tick were pushed earlier: they keep their
  // lower seqs, and the moved cohort queues behind them. The moved cohort
  // is promoted; the merged one stays so if the other was too, on walks
  // of the same delay.
  Hot& into = rings_.hot(i - 1);
  const Hot& from = rings_.hot(0);
  TickRing& target = rings_[i - 1];
  TickRing& moved = rings_[0];
  settle(into, target);
  // The moved packets are settled once copied: copying them right after
  // settling them in place would stall on store forwarding.
  const std::size_t n = target.items.size();
  target.items.insert(target.items.end(), moved.items.begin(),
                      moved.items.end());
  if (from.lag != 0) {
    settle_items(from, target.items.data() + n, moved.items.size());
  }
  if (into.left >= 0 &&
      (into.delay_us == 0 || into.delay_us == from.delay_us) &&
      into.k <= std::numeric_limits<std::uint32_t>::max() - from.k) {
    into.k += from.k;
    into.delay_us = from.delay_us;
    into.left = std::min(into.left, from.left);
  } else {
    into.left = -1;
  }
  target.spec_count += moved.spec_count;
  rings_.pop_front();
}

bool DataPlane::retire_ending(sim::SimTime when) {
  Hot& hot = rings_.hot(0);
  TickRing& ring = rings_[0];
  const std::size_t stride = destinations_.size();
  const std::size_t n = ring.items.size();
  const auto lag = static_cast<int>(hot.lag);
  // Hop by hop, the first forwarding packet of the cohort re-arms the
  // bridge at now unless it is the cohort's last packet.
  bool twice = false;
  std::size_t kept = 0;
  int left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Settled in the same pass, straight into the survivors' places:
    // copying a packet right after settling it in place would stall on
    // store forwarding.
    const HopEvent& ev = ring.items[i];
    const net::Prefix prefix = ev.packet.prefix;
    const net::NodeId node =
        lag == 0 ? ev.node
                 : walk_node(walks_[ev.node * stride + prefix], hot.lag);
    const int ttl = ev.packet.ttl - lag;
    const int hops = ev.packet.hops_taken + lag;
    const Decision& d = cached_decide(node, prefix);
    if (d.kind != Decision::Kind::kForward) {  // its walk's terminal node
      finish(ev.packet, ttl, hops, d.fate(), node, /*spec=*/true, when);
      continue;
    }
    if (ttl == 1) {
      finish(ev.packet, 0, hops, PacketFate::kTtlExhausted, node,
             /*spec=*/true, when);
      continue;
    }
    twice = twice || i + 1 < n;
    const int reach = walks_[node * stride + prefix].reach(ttl);
    left = kept == 0 ? reach : std::min(left, reach);
    const std::uint64_t seq = lag == 0 ? ev.seq : hot.seq_base + i;
    HopEvent& survivor = ring.items[kept++];
    if (&survivor != &ev) survivor.packet = ev.packet;
    survivor.at = hot.at;
    survivor.seq = seq;
    survivor.node = node;
    survivor.spec = true;
    survivor.packet.ttl = ttl;
    survivor.packet.hops_taken = hops;
  }
  ring.items.resize(kept);
  ring.spec_count = static_cast<std::uint32_t>(kept);
  hot.lag = 0;
  if (kept == 0) {
    rings_.pop_front();
  } else {
    move_front(static_cast<std::uint32_t>(kept),
               static_cast<std::int16_t>(left));
  }
  return twice;
}

void DataPlane::on_fib_change(net::NodeId node, net::Prefix prefix) {
  if (prefix >= prefix_epoch_.size()) return;
  cache_[node * prefix_epoch_.size() + prefix].topo_stamp = 0;
  ++prefix_epoch_[prefix];
  prefix_changed_at_[prefix] = sim_.now();
  if (spec_per_prefix_[prefix] == 0) return;
  // Packets whose walk passes `node` go back to hop by hop at their exact
  // current hop; the rest keep walks this change does not touch.
  const std::size_t stride = destinations_.size();
  despeculate_if([&](const HopEvent& ev) {
    return ev.spec && ev.packet.prefix == prefix &&
           walk_touches(walks_[ev.node * stride + prefix], node);
  });
}

template <typename Touched>
void DataPlane::despeculate_if(const Touched& touched) {
  for (std::size_t t = 0; t < rings_.size(); ++t) {
    TickRing& ring = rings_[t];
    const auto first = ring.items.begin() + static_cast<std::ptrdiff_t>(ring.head);
    if (ring.spec_count == 0 || std::none_of(first, ring.items.end(), touched)) {
      continue;
    }
    // Settled, a cohort's items sit at their exact current hop. Re-testing
    // them from there is exact: a walk that misses the changed node from
    // the cohort's last settle point also misses it from any later one.
    settle(t);
    for (std::size_t i = ring.head; i < ring.items.size(); ++i) {
      HopEvent& ev = ring.items[i];
      if (!touched(ev)) continue;
      ev.spec = false;
      --ring.spec_count;
      rings_.hot(t).left = -1;
      count_spec(ev.packet.prefix, false);
    }
  }
}

void DataPlane::sync_topology() {
  // Topology changes carry no observer: any bump since the speculative
  // packets' walks were taken sends them all back to hop by hop.
  if (spec_items_ != 0 && spec_topo_ != topo_.state_version()) {
    despeculate_if([](const HopEvent& ev) { return ev.spec; });
  }
  if (walk_nodes_.size() > kWalkArenaLimit) reclaim_walks();
}

void DataPlane::reclaim_walks() {
  // Stale paths pile up as epochs pass, and with packets speculating on
  // their way to delivery some packet nearly always reads the arena. Send
  // them all back to hop by hop at their exact hop (they speculate again
  // on their next try) and start over.
  if (spec_items_ != 0) despeculate_if([](const HopEvent& ev) { return ev.spec; });
  walk_nodes_.clear();
  for (Walk& w : walks_) w.epoch = 0;
}

}  // namespace bgpsim::fwd
