// AS-path value type.
//
// Convention (matching the paper's notation): a node's path to a destination
// *includes itself at the front* and ends at the origin AS. Node 6 reaching
// the destination at node 0 through node 4 holds path (6 4 0). Paths are
// advertised verbatim — the receiver sees a path whose first hop is the
// sender — and a receiver adopting a neighbor's path P stores (self)·P.
//
// Representation: an AsPath is an 8-byte handle to an immutable node of a
// trial's PathArena (see path_arena.hpp). A checkpoint names a path by
// its node's interning index (AsPath::ref). A node is the front hop plus a
// pointer to the rest of the path, so every speaker holding "(self)·P"
// shares P's node with the neighbor that advertised P. Handles are
// trivially copyable: no refcount, no destructor. Every path is built by
// one arena, which interns nodes, so structurally-equal paths are the same
// node and operator== is a pointer comparison. Reads stay on AsPath; only
// construction (prepend, from hops, load) goes through the arena.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>

#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {

class PathArena;

namespace detail {

/// One immutable arena node: the front hop and the rest of the path.
/// `origin`, `length` and `members` are denormalized so AsPath::origin(),
/// length() and the negative half of contains() are O(1).
struct PathNode {
  const PathNode* parent;
  /// Union of member_bit() over every hop of the path.
  std::uint64_t members;
  net::NodeId head;
  net::NodeId origin;
  std::uint32_t length;
  /// Position in the arena's interning order: the checkpoint names the
  /// path ending here by index + 1 (see AsPath::save).
  std::uint32_t index;
};

// The index fills what was padding: a node stays 32 bytes.
static_assert(sizeof(PathNode) == 32);

/// The bit a hop contributes to PathNode::members. Distinct nodes may share
/// a bit, so a set bit only says "maybe present".
[[nodiscard]] constexpr std::uint64_t member_bit(net::NodeId node) {
  return std::uint64_t{1} << (node & 63U);
}

}  // namespace detail

/// Lightweight forward range over a path's hops, front (advertising AS) to
/// back (origin). Iteration is O(1) per hop; operator[] is O(i) — fine for
/// the engine's uses (index 1, and short-path double loops in tests).
class HopView {
 public:
  class iterator {
   public:
    using value_type = net::NodeId;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    explicit iterator(const detail::PathNode* node) : node_{node} {}

    net::NodeId operator*() const { return node_->head; }
    iterator& operator++() {
      node_ = node_->parent;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      node_ = node_->parent;
      return tmp;
    }
    friend bool operator==(iterator, iterator) = default;

   private:
    const detail::PathNode* node_ = nullptr;
  };

  HopView() = default;
  explicit HopView(const detail::PathNode* node) : node_{node} {}

  [[nodiscard]] iterator begin() const { return iterator{node_}; }
  [[nodiscard]] iterator end() const { return iterator{}; }

  [[nodiscard]] std::size_t size() const {
    return node_ != nullptr ? node_->length : 0;
  }
  [[nodiscard]] bool empty() const { return node_ == nullptr; }

  /// i-th hop from the front. O(i). Requires i < size().
  [[nodiscard]] net::NodeId operator[](std::size_t i) const {
    const detail::PathNode* n = node_;
    for (; i > 0; --i) n = n->parent;
    return n->head;
  }

  [[nodiscard]] net::NodeId front() const { return node_->head; }
  [[nodiscard]] net::NodeId back() const { return node_->origin; }

 private:
  const detail::PathNode* node_ = nullptr;
};

/// A handle to an arena path. Valid only while the arena that built it
/// lives; the empty (default) path needs no arena.
class AsPath {
 public:
  AsPath() = default;

  [[nodiscard]] std::size_t length() const {
    return node_ != nullptr ? node_->length : 0;
  }
  [[nodiscard]] bool empty() const { return node_ == nullptr; }

  /// True if `node` appears anywhere in the path — the path-based
  /// poison-reverse test. The member mask answers most misses without a
  /// walk; a set bit is confirmed hop by hop.
  [[nodiscard]] bool contains(net::NodeId node) const {
    return find(node) != nullptr;
  }

  /// The advertising AS (front of the path). Requires !empty().
  [[nodiscard]] net::NodeId first_hop() const { return node_->head; }

  /// The origin AS (back of the path). Requires !empty().
  [[nodiscard]] net::NodeId origin() const { return node_->origin; }

  /// The sub-path starting at the first occurrence of `node` (inclusive),
  /// or an empty path if `node` is absent. Used by the Assertion check to
  /// compare what another route claims about `node`'s route. O(position);
  /// the result is this path's own interior node.
  [[nodiscard]] AsPath suffix_from(net::NodeId node) const {
    return AsPath{find(node)};
  }

  [[nodiscard]] HopView hops() const { return HopView{node_}; }

  /// "(6 4 0)" — the paper's notation.
  [[nodiscard]] std::string to_string() const;

  /// The checkpoint's name for this path within its arena: 0 for the
  /// empty path, i + 1 for the path ending at the arena's node i.
  [[nodiscard]] std::uint32_t ref() const {
    return node_ != nullptr ? node_->index + 1 : 0;
  }

  /// Checkpoint codec: the path's ref() as one u32. The arena's own
  /// section (PathArena::save) precedes every ref, and PathArena::load
  /// reads one back.
  void save(snap::Writer& w) const { w.u32(ref()); }

  /// Structural equality on the hop sequence. A pointer comparison, exact
  /// because one arena interns every path it builds.
  friend bool operator==(AsPath a, AsPath b) { return a.node_ == b.node_; }

  /// Lexicographic order on the hop sequence (not a preference order; see
  /// decision.hpp for route preference).
  friend std::strong_ordering operator<=>(AsPath a, AsPath b);

 private:
  friend class PathArena;

  explicit AsPath(const detail::PathNode* node) : node_{node} {}

  /// The first node whose head is `node`, or nullptr. A clear mask bit
  /// rules `node` out without a walk.
  [[nodiscard]] const detail::PathNode* find(net::NodeId node) const {
    if (node_ == nullptr || (node_->members & detail::member_bit(node)) == 0) {
      return nullptr;
    }
    for (const detail::PathNode* n = node_; n != nullptr; n = n->parent) {
      if (n->head == node) return n;
    }
    return nullptr;
  }

  const detail::PathNode* node_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<AsPath>);
static_assert(sizeof(AsPath) == sizeof(void*));

}  // namespace bgpsim::bgp
