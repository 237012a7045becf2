#include "metrics/collector.hpp"

#include <algorithm>

namespace bgpsim::metrics {

void Collector::note_update_sent(sim::SimTime when, bool is_withdrawal) {
  update_times_.push_back(when);
  if (is_withdrawal) ++withdrawals_;
}

void Collector::note_packet_sent(sim::SimTime when) {
  send_times_.push_back(when);
}

void Collector::note_fate(const fwd::Packet& packet, fwd::PacketFate fate,
                          net::NodeId, sim::SimTime when) {
  switch (fate) {
    case fwd::PacketFate::kDelivered:
      ++delivered_;
      break;
    case fwd::PacketFate::kTtlExhausted:
      exhaustion_times_.push_back(when);
      break;
    case fwd::PacketFate::kNoRoute:
      ++no_route_;
      break;
    case fwd::PacketFate::kLinkDown:
      ++link_down_;
      break;
  }
  if (!lanes_.empty() && packet.prefix < lanes_.size()) {
    PrefixCounters& lane = lanes_[packet.prefix];
    if (fate == fwd::PacketFate::kDelivered) ++lane.delivered;
    if (fate == fwd::PacketFate::kTtlExhausted) ++lane.ttl_exhausted;
  }
}

void Collector::enable_prefix_lanes(std::size_t prefix_count) {
  lanes_.assign(prefix_count, PrefixCounters{});
}

void Collector::note_packet_sent_for(net::Prefix prefix) {
  if (prefix < lanes_.size()) ++lanes_[prefix].sent;
}

std::optional<sim::SimTime> Collector::last_update_at(sim::SimTime from) const {
  if (update_times_.empty() || update_times_.back() < from) return std::nullopt;
  return update_times_.back();
}

std::uint64_t Collector::updates_sent_since(sim::SimTime from) const {
  const auto lo = std::ranges::lower_bound(update_times_, from);
  return static_cast<std::uint64_t>(update_times_.end() - lo);
}

std::uint64_t Collector::packets_sent_in(sim::SimTime from,
                                         sim::SimTime to) const {
  const auto lo = std::ranges::lower_bound(send_times_, from);
  const auto hi = std::ranges::upper_bound(send_times_, to);
  return static_cast<std::uint64_t>(hi - lo);
}

std::uint64_t Collector::exhaustions_since(sim::SimTime from) const {
  const auto lo = std::ranges::lower_bound(exhaustion_times_, from);
  return static_cast<std::uint64_t>(exhaustion_times_.end() - lo);
}

namespace {

std::vector<std::uint64_t> bucketize(const std::vector<sim::SimTime>& times,
                                     sim::SimTime from, sim::SimTime to,
                                     sim::SimTime bin_width) {
  if (to <= from || bin_width <= sim::SimTime::zero()) return {};
  const auto span = (to - from).as_micros();
  const auto width = bin_width.as_micros();
  const auto bins = static_cast<std::size_t>((span + width - 1) / width);
  std::vector<std::uint64_t> out(bins, 0);
  auto it = std::ranges::lower_bound(times, from);
  for (; it != times.end() && *it < to; ++it) {
    const auto idx = static_cast<std::size_t>((*it - from).as_micros() / width);
    ++out[idx];
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> Collector::update_activity(
    sim::SimTime from, sim::SimTime to, sim::SimTime bin_width) const {
  return bucketize(update_times_, from, to, bin_width);
}

std::vector<std::uint64_t> Collector::exhaustion_activity(
    sim::SimTime from, sim::SimTime to, sim::SimTime bin_width) const {
  return bucketize(exhaustion_times_, from, to, bin_width);
}

std::optional<sim::SimTime> Collector::first_exhaustion(
    sim::SimTime from) const {
  const auto lo = std::ranges::lower_bound(exhaustion_times_, from);
  if (lo == exhaustion_times_.end()) return std::nullopt;
  return *lo;
}

std::optional<sim::SimTime> Collector::last_exhaustion(sim::SimTime from) const {
  if (exhaustion_times_.empty() || exhaustion_times_.back() < from) {
    return std::nullopt;
  }
  return exhaustion_times_.back();
}

void Collector::save_state(snap::Writer& w) const {
  w.times(update_times_);
  w.times(send_times_);
  w.times(exhaustion_times_);
  w.u64(withdrawals_);
  w.u64(delivered_);
  w.u64(no_route_);
  w.u64(link_down_);
  // Lane section only when lanes are on: single-prefix checkpoint bytes
  // are unchanged, and lane enablement is a construction-time property
  // shared by saver and restorer (both sides ran the same scenario).
  if (!lanes_.empty()) {
    w.u64(lanes_.size());
    for (const PrefixCounters& lane : lanes_) {
      w.u64(lane.sent);
      w.u64(lane.delivered);
      w.u64(lane.ttl_exhausted);
    }
  }
}

void Collector::restore_state(snap::Reader& r) {
  r.times(update_times_);
  r.times(send_times_);
  r.times(exhaustion_times_);
  withdrawals_ = r.u64();
  delivered_ = r.u64();
  no_route_ = r.u64();
  link_down_ = r.u64();
  if (!lanes_.empty()) {
    const std::uint64_t n = r.count(3 * 8);
    lanes_.assign(static_cast<std::size_t>(n), PrefixCounters{});
    for (PrefixCounters& lane : lanes_) {
      lane.sent = r.u64();
      lane.delivered = r.u64();
      lane.ttl_exhausted = r.u64();
    }
  }
}

}  // namespace bgpsim::metrics
