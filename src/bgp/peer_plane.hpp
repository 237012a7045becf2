// A speaker's outbound state, one cell per (peer, prefix).
//
// A cell holds both halves of what a send decision needs: the Adj-RIB-Out
// entry (what the peer currently believes we advertised) and the MRAI
// timer toward the peer for that prefix (bgp/mrai.hpp drives it). A send
// decision, an MRAI expiry and a ghost flush find the cell once and work
// on it in place.
//
// The plane keeps one row per peer, in ascending peer order, each row a
// vector indexed by the prefix value. Iterating rows then cells visits
// (peer, prefix) in ascending order — the order of the std::maps the plane
// replaced — so the checkpoint bytes written from it are unchanged.
// Finding a row is a binary search over the speaker's peers; the cell is
// then an index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace bgpsim::bgp {

/// The MRAI half of an outbound cell.
struct MraiState {
  sim::SimTime deadline{};
  std::uint64_t seq = 0;  // 0: never started, or stopped
  sim::EventId ev{};      // non-null once promoted to a queued event
  bool pending = false;
};

/// One (peer, prefix) cell. Value-initialized = nothing sent, no timer.
struct OutboundCell {
  /// Adj-RIB-Out half: what the peer believes we advertised. The values
  /// are the checkpoint's kind byte.
  enum class Sent : std::uint8_t {
    kNotSent = 0,
    kAnnounced = 1,
    kWithdrawn = 2
  };

  AsPath path;  // valid when sent == kAnnounced
  MraiState mrai;
  Sent sent = Sent::kNotSent;
};

class PeerPlane {
 public:
  struct Row {
    net::NodeId peer;
    std::vector<OutboundCell> cells;  // indexed by prefix
  };

  /// The cell for (peer, prefix), or nullptr when the peer has no row or
  /// the row does not reach `prefix` (both mean "never touched").
  [[nodiscard]] OutboundCell* find(net::NodeId peer, net::Prefix prefix) {
    auto it = lower_bound(peer);
    if (it == rows_.end() || it->peer != peer) return nullptr;
    return prefix < it->cells.size() ? &it->cells[prefix] : nullptr;
  }
  [[nodiscard]] const OutboundCell* find(net::NodeId peer,
                                         net::Prefix prefix) const {
    return const_cast<PeerPlane*>(this)->find(peer, prefix);
  }

  /// The cell for (peer, prefix), adding the peer's row and growing it to
  /// reach `prefix` as needed. The reference stays valid until the next
  /// at() or drop() on this plane.
  OutboundCell& at(net::NodeId peer, net::Prefix prefix) {
    auto it = lower_bound(peer);
    if (it == rows_.end() || it->peer != peer) {
      it = rows_.insert(it, Row{peer, {}});
    }
    if (prefix >= it->cells.size()) it->cells.resize(prefix + std::size_t{1});
    return it->cells[prefix];
  }

  /// The peer's row, or nullptr.
  [[nodiscard]] Row* find_row(net::NodeId peer) {
    auto it = lower_bound(peer);
    return it != rows_.end() && it->peer == peer ? &*it : nullptr;
  }

  /// Remove the peer's row, both halves of every cell (session down).
  /// No-op when it has none.
  void drop(net::NodeId peer) {
    auto it = lower_bound(peer);
    if (it != rows_.end() && it->peer == peer) rows_.erase(it);
  }

  /// Rows in ascending peer order.
  [[nodiscard]] std::vector<Row>& rows() { return rows_; }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row>::iterator lower_bound(net::NodeId peer) {
    return std::lower_bound(
        rows_.begin(), rows_.end(), peer,
        [](const Row& row, net::NodeId p) { return row.peer < p; });
  }

  std::vector<Row> rows_;
};

}  // namespace bgpsim::bgp
