// Hierarchical timer wheel: the EventQueue's index.
//
// The wheel orders pending events with O(1) bucket placement instead of a
// comparison-based priority queue: time is quantized into 1.024 ms ticks
// (kTickShift), and six levels of 64 slots each (kLevelBits/kLevels) cover
// a horizon of 2^36 ticks (~2.2 simulated years) before spilling into an
// unsorted overflow vector. Events due at or before the wheel's current
// tick sit in a small sorted "ready" batch that pops from the front.
//
// Determinism argument (DESIGN.md §5): the wheel must pop in exact
// (time, seq) order, not merely per-tick order. Two invariants deliver
// that:
//   1. Every entry stored in a wheel slot or in overflow has a tick
//      strictly greater than cur_tick_, while every ready entry has a tick
//      at most cur_tick_ — so whenever the ready batch is non-empty its
//      front (the batch is kept sorted by (time, seq)) is the global
//      minimum.
//   2. advance() moves cur_tick_ forward only to the next occupied slot,
//      cascading higher-level slots down through lower levels until the
//      earliest pending entries land in the ready batch — so entries are
//      surfaced in exact tick order and sorted by (time, seq) within.
// Ticks never order events: two events in different ticks already differ
// in time, and events within one tick are sorted exactly. Quantization is
// therefore invisible to pop order. tests/sim/timer_wheel_test.cpp diffs
// the wheel-backed EventQueue against a plain ordered (time, seq) model.
//
// Cancellation is the EventQueue's lazy scheme: the owner invalidates the
// slot-pool entry and the wheel drops the stale index entry when it
// reaches the ready front (stale_fn). The wheel never owns callbacks —
// it indexes (time, seq, pool slot) triples only.
#pragma once

#include <cstdint>
#include <vector>

namespace bgpsim::sim {

class TimerWheel {
 public:
  /// One index entry: firing time (µs), FIFO tie-break seq, and the
  /// EventQueue pool slot holding the callback.
  struct Entry {
    std::int64_t time_us;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Stale predicate: true when the entry's pool slot was cancelled or
  /// re-occupied since insertion. Passed per call (never stored) so the
  /// wheel stays trivially movable alongside its owning EventQueue.
  using StaleFn = bool (*)(const void* ctx, const Entry& entry);

  /// Insert an entry. O(1) apart from the (rare) sorted insert into the
  /// ready batch for entries at or before the current tick.
  void insert(const Entry& entry);

  /// Earliest live entry, or nullptr when none remain. Advances the wheel
  /// as needed; the pointer is invalidated by any mutation.
  [[nodiscard]] const Entry* peek(StaleFn stale, const void* ctx);

  /// Remove the entry peek() just returned. Requires a preceding peek()
  /// that returned non-null, with no mutation in between.
  void pop_front();

  /// True when no entries (live or stale) are stored.
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Drop every entry. The current tick is retained: the owner's clock
  /// does not rewind, so neither does the wheel.
  void clear();

  /// Append every non-stale entry to `out` (unsorted). Snapshot support:
  /// the live (time, seq) multiset is the index-invariant view of the
  /// pending set.
  void collect(StaleFn stale, const void* ctx,
               std::vector<Entry>& out) const;

 private:
  static constexpr std::uint32_t kTickShift = 10;  // 1 tick = 1.024 ms
  static constexpr std::uint32_t kLevelBits = 6;   // 64 slots per level
  static constexpr std::uint32_t kLevels = 6;      // horizon: 2^36 ticks
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint64_t kSlotMask = kSlotsPerLevel - 1;

  [[nodiscard]] static std::uint64_t tick_of(std::int64_t time_us) {
    return static_cast<std::uint64_t>(time_us) >> kTickShift;
  }

  /// Place an entry by its tick: ready batch (tick <= cur_tick_), the
  /// lowest level whose window contains it, or overflow.
  void place(const Entry& entry);

  /// With the ready batch empty, move cur_tick_ to the next occupied slot
  /// and surface its entries. Leaves the ready batch sorted; it stays
  /// empty only when no entries remain anywhere.
  void advance();

  /// Re-distribute a higher-level slot's entries across lower levels (and
  /// the ready batch, for the window base tick).
  void cascade(std::uint32_t level, std::uint32_t index);

  std::vector<Entry> slots_[kLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kLevels] = {};  // bitmap per level
  std::vector<Entry> overflow_;           // beyond the 2^36-tick horizon
  std::vector<Entry> ready_;              // sorted by (time, seq)
  std::size_t ready_pos_ = 0;             // ready_ front index
  std::uint64_t cur_tick_ = 0;
  std::size_t count_ = 0;  // entries stored anywhere, stale included
};

}  // namespace bgpsim::sim
