#include "bgp/path_arena.hpp"

#include <string>

namespace bgpsim::bgp {

namespace {

constexpr std::size_t kInitialSlots = 1024;

}  // namespace

PathArena::PathArena()
    : table_(kInitialSlots, nullptr), mask_{kInitialSlots - 1} {}

AsPath PathArena::prepend(net::NodeId head, AsPath rest) {
  return AsPath{intern(head, rest.node_)};
}

AsPath PathArena::make(std::span<const net::NodeId> hops) {
  // Cons from the back so the list reads front -> origin.
  const detail::PathNode* node = nullptr;
  for (std::size_t i = hops.size(); i > 0; --i) {
    node = intern(hops[i - 1], node);
  }
  return AsPath{node};
}

AsPath PathArena::load(snap::Reader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 4) {
    throw snap::FormatError{"AS path of " + std::to_string(n) +
                            " hops overruns the snapshot"};
  }
  load_hops_.clear();
  for (std::uint64_t i = 0; i < n; ++i) load_hops_.push_back(r.u32());
  return make(load_hops_);
}

std::size_t PathArena::home(net::NodeId head,
                            const detail::PathNode* parent) const {
  std::uint64_t h = reinterpret_cast<std::uintptr_t>(parent);
  h ^= std::uint64_t{head} << 32 | head;
  h *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> 32) & mask_;
}

const detail::PathNode* PathArena::intern(net::NodeId head,
                                          const detail::PathNode* parent) {
  std::size_t slot = home(head, parent);
  for (const detail::PathNode* n; (n = table_[slot]) != nullptr;
       slot = (slot + 1) & mask_) {
    if (n->head == head && n->parent == parent) return n;
  }
  if (size_ % kChunkNodes == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<detail::PathNode[]>(kChunkNodes));
  }
  detail::PathNode* node = &chunks_.back()[size_ % kChunkNodes];
  node->parent = parent;
  node->head = head;
  if (parent != nullptr) {
    node->members = parent->members | detail::member_bit(head);
    node->origin = parent->origin;
    node->length = parent->length + 1;
  } else {
    node->members = detail::member_bit(head);
    node->origin = head;
    node->length = 1;
  }
  ++size_;
  table_[slot] = node;
  if (2 * size_ > table_.size()) grow_table();
  return node;
}

void PathArena::grow_table() {
  std::vector<const detail::PathNode*> old = std::move(table_);
  table_.assign(old.size() * 2, nullptr);
  mask_ = table_.size() - 1;
  for (const detail::PathNode* n : old) {
    if (n == nullptr) continue;
    std::size_t slot = home(n->head, n->parent);
    while (table_[slot] != nullptr) slot = (slot + 1) & mask_;
    table_[slot] = n;
  }
}

}  // namespace bgpsim::bgp
