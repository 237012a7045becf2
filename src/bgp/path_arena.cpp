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

void PathArena::save(snap::Writer& w) const {
  w.u64(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const detail::PathNode* n = node(i);
    w.u32(AsPath{n->parent}.ref());
    w.u32(n->head);
  }
}

void PathArena::restore(snap::Reader& r) {
  // Each node is a (parent ref, head) pair.
  const std::uint64_t n = r.count(4 + 4);
  while (table_.size() < 2 * n) grow_table();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t parent_ref = r.u32();
    const net::NodeId head = r.u32();
    if (parent_ref > i) {
      throw snap::FormatError{"path node " + std::to_string(i) +
                              " names parent ref " +
                              std::to_string(parent_ref) +
                              ", which is not an earlier node"};
    }
    if (i < size_) {
      const detail::PathNode* have = node(i);
      if (have->head != head || AsPath{have->parent}.ref() != parent_ref) {
        throw snap::FormatError{"path node " + std::to_string(i) +
                                " differs from the arena's node " +
                                std::to_string(i)};
      }
      continue;
    }
    const detail::PathNode* parent =
        parent_ref != 0 ? node(parent_ref - 1) : nullptr;
    if (intern(head, parent)->index != i) {
      throw snap::FormatError{"path node " + std::to_string(i) +
                              " repeats an earlier (parent, head) pair"};
    }
  }
}

AsPath PathArena::load(snap::Reader& r) const {
  const std::uint32_t ref = r.u32();
  if (ref > size_) {
    throw snap::FormatError{"path ref " + std::to_string(ref) +
                            " is beyond the arena's " + std::to_string(size_) +
                            " node(s)"};
  }
  return AsPath{ref != 0 ? node(ref - 1) : nullptr};
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
  node->index = static_cast<std::uint32_t>(size_);
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
