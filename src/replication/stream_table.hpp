#pragma once

// StreamTable: the replication protocol's per-rank table of stream records,
// one per (logical peer, tag) key.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace repmpi::rep {

/// Per-stream state is looked up on every message, and apps and collectives
/// use a fresh tag per call, so almost every stream carries one message and
/// then sits in one *settled* state for the rest of the run. The table keeps
/// only streams in flight in its slot array; a settled stream costs one bit.
///
///  * `settle(k)` erases `k`'s record if it equals the table's settled value
///    and sets `k`'s bit in a side table of 64-bit words keyed by `k >> 6`.
///  * const `find` of a settled key returns the settled value as a read-only
///    view and inserts nothing.
///  * `operator[]` and mutable `find` of a settled key put the record back
///    into the array first, so every key reads the same value as in a table
///    that never erased.
///
/// Both the records and the words live in flat open-addressing arrays:
/// linear probing from the mixed key, doubled at 3/4 load from 64 slots,
/// backward-shift deletion (no tombstones). No table is iterated, so the
/// layout cannot perturb any deterministic ordering. Growth and erasure
/// move records: `operator[]`, mutable `find` and `settle` invalidate every
/// pointer and reference into the table.
template <class Rec>
class StreamTable {
 public:
  /// Keys are (logical peer << 32) | tag, never ~0.
  using Key = std::uint64_t;

  explicit StreamTable(const Rec& settled) : settled_(settled) {}

  /// The record of `k`, or null if `k` was never opened.
  const Rec* find(Key k) const {
    if (const std::size_t i = records_.find(k); i != kNone)
      return &records_.at(i);
    return is_settled(k) ? &settled_ : nullptr;
  }
  /// The record of `k`, or null if `k` was never opened; a settled record
  /// goes back into the array so it may be written.
  Rec* find(Key k) {
    if (const std::size_t i = records_.find(k); i != kNone)
      return &records_.at(i);
    return unsettle(k) ? &records_.at(records_.insert(k, settled_)) : nullptr;
  }
  /// The record of `k`, value-initialised when the stream is first opened.
  Rec& operator[](Key k) {
    if (Rec* r = find(k)) return *r;
    ++opened_;
    return records_.at(records_.insert(k, Rec{}));
  }
  /// Drops `k`'s record from the array if it holds the settled value.
  void settle(Key k) {
    const std::size_t i = records_.find(k);
    if (i == kNone || !(records_.at(i) == settled_)) return;
    records_.erase_at(i);
    std::size_t w = words_.find(k >> 6);
    if (w == kNone) w = words_.insert(k >> 6, 0);
    words_.at(w) |= bit(k);
  }

  /// Streams ever opened, settled or not.
  std::uint64_t opened() const { return opened_; }
  /// Records in the slot array: the streams not settled.
  std::size_t held() const { return records_.size(); }
  /// Slots in the record array, and the one `k` probes from (for tests).
  std::size_t capacity() const { return records_.capacity(); }
  std::size_t home(Key k) const { return records_.home(k); }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static std::uint64_t bit(Key k) { return std::uint64_t{1} << (k & 63); }

  /// Flat open-addressing map from 64-bit keys (never ~0) to values.
  template <class V>
  class Slots {
   public:
    std::size_t find(std::uint64_t k) const {
      if (slots_.empty()) return kNone;
      for (std::size_t i = home(k);; i = (i + 1) & mask()) {
        if (slots_[i].key == k) return i;
        if (slots_[i].key == kEmpty) return kNone;
      }
    }
    V& at(std::size_t i) { return slots_[i].val; }
    const V& at(std::size_t i) const { return slots_[i].val; }
    /// Inserts `k`, which must be absent; returns its slot.
    std::size_t insert(std::uint64_t k, const V& v) {
      if (4 * (size_ + 1) > 3 * slots_.size()) grow();
      std::size_t i = home(k);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask();
      slots_[i] = Slot{k, v};
      ++size_;
      return i;
    }
    /// Empties slot `i`. Each later entry of the probe run moves back into
    /// the hole unless its home lies cyclically in (hole, its slot].
    void erase_at(std::size_t i) {
      for (std::size_t j = (i + 1) & mask(); slots_[j].key != kEmpty;
           j = (j + 1) & mask()) {
        if (((j - home(slots_[j].key)) & mask()) >= ((j - i) & mask())) {
          slots_[i] = std::move(slots_[j]);
          i = j;
        }
      }
      slots_[i].key = kEmpty;
      --size_;
    }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }
    std::size_t home(std::uint64_t k) const {
      k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
      k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(k ^ (k >> 31)) & mask();
    }

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t key = kEmpty;
      V val{};
    };
    std::size_t mask() const { return slots_.size() - 1; }
    void grow() {
      std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
      old.swap(slots_);
      for (Slot& s : old) {
        if (s.key == kEmpty) continue;
        std::size_t i = home(s.key);
        while (slots_[i].key != kEmpty) i = (i + 1) & mask();
        slots_[i] = std::move(s);
      }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  bool is_settled(Key k) const {
    const std::size_t w = words_.find(k >> 6);
    return w != kNone && (words_.at(w) & bit(k)) != 0;
  }
  /// Clears `k`'s settled bit; false if it was not set.
  bool unsettle(Key k) {
    const std::size_t w = words_.find(k >> 6);
    if (w == kNone || (words_.at(w) & bit(k)) == 0) return false;
    words_.at(w) &= ~bit(k);
    if (words_.at(w) == 0) words_.erase_at(w);
    return true;
  }

  Rec settled_;
  Slots<Rec> records_;
  Slots<std::uint64_t> words_;  ///< settled bits of keys k, by k >> 6
  std::uint64_t opened_ = 0;
};

}  // namespace repmpi::rep
