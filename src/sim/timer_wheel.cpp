#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bgpsim::sim {

namespace {

/// Strict (time, seq) order — the queue's pop order.
bool entry_before(const TimerWheel::Entry& a, const TimerWheel::Entry& b) {
  if (a.time_us != b.time_us) return a.time_us < b.time_us;
  return a.seq < b.seq;
}

}  // namespace

void TimerWheel::insert(const Entry& entry) {
  ++count_;
  place(entry);
}

void TimerWheel::place(const Entry& entry) {
  const std::uint64_t tick = tick_of(entry.time_us);
  if (tick <= cur_tick_) {
    // Due now (or the owner peeked ahead of the clock): keep the ready
    // batch sorted so its front stays the global minimum.
    const auto it = std::lower_bound(ready_.begin() + ready_pos_,
                                     ready_.end(), entry, entry_before);
    ready_.insert(it, entry);
    return;
  }
  for (std::uint32_t level = 0; level < kLevels; ++level) {
    const std::uint32_t above = kLevelBits * (level + 1);
    if ((tick >> above) != (cur_tick_ >> above)) continue;
    const auto index =
        static_cast<std::uint32_t>((tick >> (kLevelBits * level)) & kSlotMask);
    slots_[level][index].push_back(entry);
    occupied_[level] |= std::uint64_t{1} << index;
    return;
  }
  overflow_.push_back(entry);
}

const TimerWheel::Entry* TimerWheel::peek(StaleFn stale, const void* ctx) {
  for (;;) {
    while (ready_pos_ < ready_.size()) {
      const Entry& front = ready_[ready_pos_];
      if (!stale(ctx, front)) return &front;
      ++ready_pos_;
      assert(count_ > 0);
      --count_;
    }
    ready_.clear();
    ready_pos_ = 0;
    if (count_ == 0) return nullptr;
    advance();
  }
}

void TimerWheel::pop_front() {
  assert(ready_pos_ < ready_.size());
  ++ready_pos_;
  assert(count_ > 0);
  --count_;
  if (ready_pos_ == ready_.size()) {
    ready_.clear();
    ready_pos_ = 0;
  }
}

void TimerWheel::advance() {
  // Precondition: ready batch empty, count_ > 0 (entries exist in some
  // slot or in overflow).
  for (;;) {
    // Level 0: the next occupied slot in the current 64-tick window. The
    // bit at cur_tick_'s own position is structurally clear (an entry due
    // at the current tick goes straight to the ready batch), so the mask
    // may include it.
    const std::uint64_t mask0 =
        occupied_[0] & (~std::uint64_t{0} << (cur_tick_ & kSlotMask));
    if (mask0 != 0) {
      const auto index = static_cast<std::uint32_t>(std::countr_zero(mask0));
      cur_tick_ = (cur_tick_ & ~kSlotMask) | index;
      std::vector<Entry>& bucket = slots_[0][index];
      ready_.insert(ready_.end(), bucket.begin(), bucket.end());
      bucket.clear();
      occupied_[0] &= ~(std::uint64_t{1} << index);
      std::sort(ready_.begin(), ready_.end(), entry_before);
      return;
    }

    // Climb: find the lowest level with an occupied slot at or beyond the
    // current position and cascade it down. The slot at the current
    // position itself is structurally clear at every level (its entries
    // would have been placed lower), so countr_zero lands strictly ahead.
    bool cascaded = false;
    for (std::uint32_t level = 1; level < kLevels; ++level) {
      const std::uint32_t shift = kLevelBits * level;
      const std::uint64_t pos = (cur_tick_ >> shift) & kSlotMask;
      const std::uint64_t mask = occupied_[level] & (~std::uint64_t{0} << pos);
      if (mask == 0) continue;
      const auto index = static_cast<std::uint32_t>(std::countr_zero(mask));
      // Jump to the base tick of that slot's window; lower-level positions
      // reset to zero.
      const std::uint64_t window = (std::uint64_t{1} << (shift + kLevelBits)) - 1;
      cur_tick_ = (cur_tick_ & ~window) |
                  (static_cast<std::uint64_t>(index) << shift);
      cascade(level, index);
      cascaded = true;
      break;
    }
    if (cascaded) {
      // Entries due exactly at the window base landed in the ready batch
      // (already sorted by place()); anything else went to lower levels
      // and the next iteration finds it.
      if (!ready_.empty()) return;
      continue;
    }

    // Wheels empty: pull the overflow horizon in. Jump to the earliest
    // overflow tick and re-place everything relative to it; at least the
    // earliest entry leaves overflow, so this terminates.
    assert(!overflow_.empty());
    std::uint64_t min_tick = tick_of(overflow_.front().time_us);
    for (const Entry& e : overflow_) {
      min_tick = std::min(min_tick, tick_of(e.time_us));
    }
    assert(min_tick > cur_tick_);
    cur_tick_ = min_tick;
    std::vector<Entry> spill;
    spill.swap(overflow_);
    for (const Entry& e : spill) place(e);
    if (!ready_.empty()) {
      std::sort(ready_.begin(), ready_.end(), entry_before);
      return;
    }
  }
}

void TimerWheel::cascade(std::uint32_t level, std::uint32_t index) {
  occupied_[level] &= ~(std::uint64_t{1} << index);
  std::vector<Entry> spill;
  spill.swap(slots_[level][index]);
  for (const Entry& e : spill) place(e);
}

void TimerWheel::clear() {
  for (auto& level : slots_) {
    for (auto& bucket : level) bucket.clear();
  }
  for (std::uint64_t& bits : occupied_) bits = 0;
  overflow_.clear();
  ready_.clear();
  ready_pos_ = 0;
  count_ = 0;
}

void TimerWheel::collect(StaleFn stale, const void* ctx,
                         std::vector<Entry>& out) const {
  const auto keep = [&](const Entry& e) {
    if (!stale(ctx, e)) out.push_back(e);
  };
  for (std::size_t i = ready_pos_; i < ready_.size(); ++i) keep(ready_[i]);
  for (const auto& level : slots_) {
    for (const auto& bucket : level) {
      for (const Entry& e : bucket) keep(e);
    }
  }
  for (const Entry& e : overflow_) keep(e);
}

}  // namespace bgpsim::sim
