#include "metrics/loop_detector.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bgpsim::metrics {
namespace {

/// Rotate the cycle so its smallest node id leads; makes membership
/// comparable across detections.
std::vector<net::NodeId> canonicalize(std::vector<net::NodeId> cycle) {
  assert(!cycle.empty());
  const auto min_it = std::ranges::min_element(cycle);
  std::ranges::rotate(cycle, min_it);
  return cycle;
}

}  // namespace

LoopDetector::LoopDetector(std::size_t node_count)
    : next_hop_(node_count),
      active_idx_(node_count, kNoRecord),
      mark_(node_count, 0) {}

void LoopDetector::attach(sim::Simulator& simulator, std::vector<fwd::Fib>& fibs,
                          std::span<LoopDetector> detectors) {
  for (net::NodeId node = 0; node < fibs.size(); ++node) {
    fibs[node].add_observer(
        [detectors, node, &simulator](net::Prefix prefix,
                                      std::optional<net::NodeId> /*old*/,
                                      std::optional<net::NodeId> now) {
          if (prefix < detectors.size()) {
            detectors[prefix].on_next_hop_change(node, now, simulator.now());
          }
        });
  }
}

void LoopDetector::on_next_hop_change(net::NodeId node,
                                      std::optional<net::NodeId> now,
                                      sim::SimTime when) {
  assert(node < next_hop_.size());
  if (next_hop_[node] == now) return;
  next_hop_[node] = now;

  // Only `node`'s out-edge changed, and cycles of a functional graph are
  // node-disjoint, so the one active cycle containing `node` (if any) is
  // the only cycle that can have dissolved.
  if (active_idx_[node] != kNoRecord) {
    LoopRecord& rec = records_[active_idx_[node]];
    rec.resolved_at = when;
    for (net::NodeId m : rec.members) active_idx_[m] = kNoRecord;
    active_.erase(rec.members);
    if (observer_) observer_(rec, /*formed=*/false);
  }

  // Any newly formed cycle must use the new edge, i.e. pass through `node`.
  // Walk the next-hop chain from `node`; it either dead-ends, merges into
  // an (unchanged, still tracked) active cycle, or returns to `node` — the
  // one case that forms a loop.
  const std::size_t n = next_hop_.size();
  if (++epoch_ == 0) {  // stamp wrap-around: reset and restart epochs
    std::ranges::fill(mark_, 0);
    epoch_ = 1;
  }
  walk_.clear();
  net::NodeId u = node;
  while (true) {
    mark_[u] = epoch_;
    walk_.push_back(u);
    const auto& nh = next_hop_[u];
    if (!nh || *nh >= n) return;  // dead end: no route (or the destination)
    u = *nh;
    if (u == node) break;                      // cycle: the whole walk
    if (active_idx_[u] != kNoRecord) return;   // merged into another cycle
    if (mark_[u] == epoch_) {
      // A revisit below `node` would mean an untracked cycle — impossible
      // while the active set is maintained for every change (see header).
      assert(false && "untracked cycle in next-hop graph");
      return;
    }
  }

  records_.push_back(
      LoopRecord{canonicalize(walk_), when, std::nullopt});
  const std::size_t idx = records_.size() - 1;
  active_.emplace(records_.back().members, idx);
  for (net::NodeId m : records_.back().members) active_idx_[m] = idx;
  if (observer_) observer_(records_.back(), /*formed=*/true);
}

std::vector<std::vector<net::NodeId>> LoopDetector::find_cycles() const {
  const std::size_t n = next_hop_.size();
  // 0 = unvisited, 1 = on current walk, 2 = finished.
  std::vector<std::uint8_t> color(n, 0);
  std::vector<std::uint32_t> walk_pos(n, 0);
  std::vector<std::vector<net::NodeId>> cycles;

  std::vector<net::NodeId> walk;
  for (net::NodeId start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    walk.clear();
    net::NodeId u = start;
    while (true) {
      if (color[u] == 1) {
        // Found a cycle: the walk suffix starting at u.
        cycles.emplace_back(walk.begin() + walk_pos[u], walk.end());
        break;
      }
      if (color[u] == 2) break;  // merged into an already-explored region
      color[u] = 1;
      walk_pos[u] = static_cast<std::uint32_t>(walk.size());
      walk.push_back(u);
      const auto& nh = next_hop_[u];
      if (!nh || *nh >= n) break;  // dead end: no route (or the destination)
      u = *nh;
    }
    for (net::NodeId v : walk) color[v] = 2;
  }
  return cycles;
}

bool LoopDetector::matches_full_scan() const {
  std::map<std::vector<net::NodeId>, bool> rescanned;
  for (auto& cycle : find_cycles()) {
    rescanned.emplace(canonicalize(std::move(cycle)), true);
  }
  if (rescanned.size() != active_.size()) return false;
  for (const auto& [members, idx] : active_) {
    (void)idx;
    if (!rescanned.contains(members)) return false;
  }
  return true;
}

void LoopDetector::clear_history() {
  if (!active_.empty()) {
    throw std::logic_error{"LoopDetector::clear_history with active loops"};
  }
  records_.clear();
}

void LoopDetector::finalize(sim::SimTime end) {
  for (auto& [members, idx] : active_) {
    if (!records_[idx].resolved_at) records_[idx].resolved_at = end;
  }
  active_.clear();
  std::ranges::fill(active_idx_, kNoRecord);
}

std::vector<std::vector<net::NodeId>> LoopDetector::active_loops() const {
  std::vector<std::vector<net::NodeId>> out;
  out.reserve(active_.size());
  for (const auto& [members, idx] : active_) out.push_back(members);
  return out;
}

}  // namespace bgpsim::metrics
