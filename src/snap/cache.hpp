// Process-wide cache of converged-prelude snapshots.
//
// run_trials keys each trial's Phase-1 prelude by (driver, topology
// spec, prelude-shaping config, seed). On a hit the
// trial warm-starts from the cached snapshot instead of re-running cold
// convergence; on a miss the cold run captures its converged state and
// deposits it. Entries are immutable (shared_ptr<const Snapshot>), so
// concurrent trials can fork from one entry without copies or locks
// beyond the map mutex.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "snap/snapshot.hpp"

namespace bgpsim::snap {

class PreludeCache {
 public:
  /// The process-wide instance. Capacity comes from BGPSIM_SNAP_CACHE on
  /// first use (default kDefaultCapacity; 0 disables caching entirely).
  [[nodiscard]] static PreludeCache& instance();

  /// Lookup; null on miss. Counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const Snapshot> find(std::uint64_t key);

  /// Deposit; first writer wins (a concurrent duplicate is dropped).
  /// Evicts the oldest entry when full. No-op while disabled.
  void insert(std::uint64_t key, std::shared_ptr<const Snapshot> snapshot);

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t size() const;
  /// Resize (evicting oldest entries if shrinking); 0 disables.
  void set_capacity(std::size_t capacity);
  void clear();

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  void reset_stats();

  static constexpr std::size_t kDefaultCapacity = 32;

  PreludeCache(const PreludeCache&) = delete;
  PreludeCache& operator=(const PreludeCache&) = delete;

 private:
  PreludeCache();  // reads BGPSIM_SNAP_CACHE

  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  std::size_t capacity_ = kDefaultCapacity;
  std::list<std::uint64_t> order_;  // insertion order, oldest first
  std::unordered_map<std::uint64_t,
                     std::pair<std::shared_ptr<const Snapshot>,
                               std::list<std::uint64_t>::iterator>>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bgpsim::snap
