// Dense per-(peer, prefix) state: one row per peer, each row a vector
// indexed by the prefix value.
//
// A speaker keeps two such tables — its MRAI timers and its Adj-RIB-Out
// mirror — and touches them on every send decision and every timer
// expiry. Rows are kept in ascending peer order and cells are visited in
// ascending prefix order, so iterating the plane reproduces the
// (peer, prefix) order of the std::map it replaces; the checkpoint bytes
// written from it are unchanged. Finding a row is a binary search over the
// speaker's peers; the cell is then an index.
#pragma once

#include <algorithm>
#include <vector>

#include "net/types.hpp"

namespace bgpsim::bgp {

template <typename T>
class PeerPlane {
 public:
  struct Row {
    net::NodeId peer;
    std::vector<T> cells;  // indexed by prefix; value-initialized = empty
  };

  /// The cell for (peer, prefix), or nullptr when the peer has no row or
  /// the row does not reach `prefix` (both mean "never written").
  [[nodiscard]] T* find(net::NodeId peer, net::Prefix prefix) {
    Row* row = find_row(peer);
    return row != nullptr && prefix < row->cells.size() ? &row->cells[prefix]
                                                        : nullptr;
  }
  [[nodiscard]] const T* find(net::NodeId peer, net::Prefix prefix) const {
    return const_cast<PeerPlane*>(this)->find(peer, prefix);
  }

  /// The cell for (peer, prefix), adding the peer's row and growing it to
  /// reach `prefix` as needed.
  T& at(net::NodeId peer, net::Prefix prefix) {
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

  /// Remove the peer's row (session down). No-op when it has none.
  void drop(net::NodeId peer) {
    auto it = lower_bound(peer);
    if (it != rows_.end() && it->peer == peer) rows_.erase(it);
  }

  void clear() { rows_.clear(); }

  /// Rows in ascending peer order.
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  typename std::vector<Row>::iterator lower_bound(net::NodeId peer) {
    return std::lower_bound(
        rows_.begin(), rows_.end(), peer,
        [](const Row& row, net::NodeId p) { return row.peer < p; });
  }

  std::vector<Row> rows_;
};

}  // namespace bgpsim::bgp
