#include "bgp/path_store.hpp"

namespace bgpsim::bgp {

namespace detail {

void release(const PathNode* n) noexcept {
  while (n != nullptr) {
    if (n->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    const PathNode* parent = n->parent;
    delete n;
    n = parent;
  }
}

const PathNode* cons(net::NodeId head, const PathNode* parent) {
  if (PathStore* store = PathStore::current(); store != nullptr) {
    return store->intern(head, parent);
  }
  auto* node = new PathNode;
  node->parent = retain(parent);
  node->head = head;
  node->origin = parent != nullptr ? parent->origin : head;
  node->length = parent != nullptr ? parent->length + 1 : 1;
  return node;
}

}  // namespace detail

const detail::PathNode* PathStore::intern(net::NodeId head,
                                          const detail::PathNode* parent) {
  const Key key{head, parent};
  if (auto it = table_.find(key); it != table_.end()) {
    ++hits_;
    return detail::retain(it->second);
  }
  ++misses_;
  auto* node = new detail::PathNode;
  node->parent = detail::retain(parent);
  node->head = head;
  node->origin = parent != nullptr ? parent->origin : head;
  node->length = parent != nullptr ? parent->length + 1 : 1;
  node->refs.store(2, std::memory_order_relaxed);  // the table + the caller
  table_.emplace(key, node);
  return node;
}

void PathStore::clear() {
  for (const auto& [key, node] : table_) detail::release(node);
  table_.clear();
}

}  // namespace bgpsim::bgp
