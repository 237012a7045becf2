// Structurally-shared AS-path storage.
//
// An AS path is an immutable cons list: a node holds the front hop plus a
// refcounted pointer to the rest of the path. prepended() — the operation
// the convergence hot loop performs once per adopted route — is then an
// O(1) cons onto the parent instead of a full vector copy, and every
// speaker holding "(self)·P" shares P's storage with the neighbor that
// advertised P.
//
// A PathStore adds interning on top of the sharing: while a store is
// current (PathStore::Scope, opened per experiment by the run drivers),
// cons(head, parent) returns the same node for the same arguments, so
// structurally-equal paths built through any sequence of operations are
// pointer-equal and AsPath::operator== is a pointer comparison on the hot
// path. The store is thread-confined (one experiment = one thread = one
// scope); node refcounts are atomic so shared suffixes may outlive the
// store that created them.
//
// Determinism: interning changes only *where* a path lives, never its hop
// sequence, so every observable output (decision order, codec bytes,
// digests) is bit-identical with and without a store. The digest-equality
// suite in tests/core/digest_equiv_test.cpp enforces this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "net/types.hpp"

namespace bgpsim::bgp {

class PathStore;

namespace detail {

/// One immutable cons cell. `parent` (the rest of the path) is owned: a
/// node holds one reference to it for its whole lifetime. `origin` and
/// `length` are denormalized so AsPath::origin()/length() are O(1).
struct PathNode {
  const PathNode* parent = nullptr;
  mutable std::atomic<std::uint32_t> refs{1};
  net::NodeId head = 0;
  net::NodeId origin = 0;
  std::uint32_t length = 0;
};

/// Take one additional reference. Tolerates nullptr.
inline const PathNode* retain(const PathNode* n) noexcept {
  if (n != nullptr) n->refs.fetch_add(1, std::memory_order_relaxed);
  return n;
}

/// Drop one reference; frees the node (and cascades into its parent chain
/// while uniquely owned). Tolerates nullptr.
void release(const PathNode* n) noexcept;

/// (head)·parent as an owned node (+1 reference handed to the caller).
/// Consults the calling thread's current PathStore, if any, so repeated
/// construction of the same path returns the same node.
[[nodiscard]] const PathNode* cons(net::NodeId head, const PathNode* parent);

}  // namespace detail

/// Per-experiment intern table for PathNodes. Not thread-safe: a store
/// must be used (Scope'd, consed into, destroyed) on a single thread.
class PathStore {
 public:
  PathStore() = default;
  ~PathStore() { clear(); }
  PathStore(const PathStore&) = delete;
  PathStore& operator=(const PathStore&) = delete;

  /// Makes `store` the calling thread's current store for the Scope's
  /// lifetime (nestable: the previous current store is restored on exit).
  /// Every AsPath construction on this thread interns through it.
  class Scope {
   public:
    explicit Scope(PathStore& store) noexcept : prev_{current_} {
      current_ = &store;
    }
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PathStore* prev_;
  };

  /// The calling thread's current store, or nullptr (plain refcounted
  /// sharing without interning).
  [[nodiscard]] static PathStore* current() noexcept { return current_; }

  /// Distinct interned nodes currently alive in the table.
  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Intern probes that found an existing node / created a fresh one.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Drop the table (releases the store's reference on every interned
  /// node; nodes still referenced by live AsPaths survive un-interned).
  void clear();

 private:
  friend const detail::PathNode* detail::cons(net::NodeId, const detail::PathNode*);

  struct Key {
    net::NodeId head;
    const detail::PathNode* parent;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // FNV-1a over the two fields; the parent pointer is already
      // well-distributed.
      std::uint64_t h = 1469598103934665603ull;
      h = (h ^ k.head) * 1099511628211ull;
      h = (h ^ reinterpret_cast<std::uintptr_t>(k.parent)) * 1099511628211ull;
      return static_cast<std::size_t>(h);
    }
  };

  [[nodiscard]] const detail::PathNode* intern(net::NodeId head,
                                               const detail::PathNode* parent);

  // constinit inline: every access is a direct TLS access, not a call to
  // the thread_local wrapper that gcc's UBSan misreads as null in
  // optimized builds.
  static constinit inline thread_local PathStore* current_ = nullptr;

  // Holds one reference per entry.
  std::unordered_map<Key, const detail::PathNode*, KeyHash> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bgpsim::bgp
