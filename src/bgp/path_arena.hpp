// The trial-owned store every AS path of one run lives in.
//
// An AS path is an immutable cons list of arena nodes: (head)·parent.
// prepend() — the operation the convergence loop performs once per adopted
// route — is an O(1) intern of (parent, head), so every speaker holding
// "(self)·P" shares P's nodes with the neighbor that advertised P.
//
// Nodes are appended to fixed-size chunks and never move or die before the
// arena does, so an AsPath is a plain pointer: copying one costs nothing
// and no refcount is kept. Interning goes through a flat open-addressing
// table keyed by (parent, head): structurally-equal paths built through any
// sequence of operations are the same node, which makes AsPath::operator==
// a pointer comparison. The arena never frees a node before it is
// destroyed; a trial interns a few thousand (fulltable-512) to a few tens
// of thousands (policy-10k) distinct nodes, so no compaction is needed.
//
// Lifetime: run_experiment declares one arena per trial, passes it to the
// network it builds, and drops it at trial end. No AsPath may outlive its
// arena: nothing that lives across trials (check::Oracle, the report
// structs) holds one. An arena is not thread-safe; a trial runs on one
// thread.
//
// Determinism: the arena changes only where a path lives, never its hop
// sequence, so decision order and digests do not depend on it.
//
// Checkpoints: the arena is written once, as its nodes in interning order
// (save), and every path elsewhere in a checkpoint is one u32 ref into that
// list (AsPath::ref, load). Interning order is deterministic for a given
// run, so the bytes are too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/types.hpp"
#include "snap/codec.hpp"

namespace bgpsim::bgp {

class PathArena {
 public:
  PathArena();
  PathArena(const PathArena&) = delete;
  PathArena& operator=(const PathArena&) = delete;

  /// (head)·rest.
  [[nodiscard]] AsPath prepend(net::NodeId head, AsPath rest);

  /// The path with these hops, front (advertising AS) first.
  [[nodiscard]] AsPath make(std::span<const net::NodeId> hops);
  [[nodiscard]] AsPath make(std::initializer_list<net::NodeId> hops) {
    return make(std::span<const net::NodeId>{hops.begin(), hops.size()});
  }

  /// Checkpoint codec: the node count (u64), then each node in interning
  /// order as its (parent ref, head) u32 pair. A parent always precedes
  /// its children.
  void save(snap::Writer& w) const;

  /// Inverse of save, in one pass that reads each node once and never
  /// walks a hop list. Snapshot node i is arena node i: the arena's
  /// existing nodes (an in-place restore, or a trial that has already
  /// built some paths) must be the snapshot's first nodes and are checked,
  /// not duplicated; the rest are appended. Ends in snap::FormatError on a
  /// parent ref at or after its own node, a (parent, head) pair that
  /// repeats an earlier node, an existing node the snapshot contradicts,
  /// or truncation. Re-saving right after a restore into an empty arena, or
  /// an in-place one, gives the same bytes.
  void restore(snap::Reader& r);

  /// Read one ref AsPath::save wrote. Throws snap::FormatError for a ref
  /// beyond the arena's nodes.
  [[nodiscard]] AsPath load(snap::Reader& r) const;

  /// Distinct nodes interned so far.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Nodes per chunk: 16 KiB at 32 bytes a node.
  static constexpr std::size_t kChunkNodes = 512;

  [[nodiscard]] const detail::PathNode* node(std::size_t index) const {
    return &chunks_[index / kChunkNodes][index % kChunkNodes];
  }
  [[nodiscard]] const detail::PathNode* intern(net::NodeId head,
                                               const detail::PathNode* parent);
  [[nodiscard]] std::size_t home(net::NodeId head,
                                 const detail::PathNode* parent) const;
  void grow_table();

  std::vector<std::unique_ptr<detail::PathNode[]>> chunks_;
  std::size_t size_ = 0;
  /// Open addressing with linear probing; nullptr marks a free slot. The
  /// capacity is a power of two, kept at least twice the node count.
  std::vector<const detail::PathNode*> table_;
  std::size_t mask_ = 0;
};

}  // namespace bgpsim::bgp
