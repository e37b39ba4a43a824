#ifndef PATCHINDEX_EXEC_FLAT_I64_MAP_H_
#define PATCHINDEX_EXEC_FLAT_I64_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace patchindex {

/// Open-addressing hash map from INT64 keys to dense indices (group
/// numbers, counters): one flat array of (key, value) slots, power-of-two
/// capacity, linear probing, multiplicative (Fibonacci) hashing on the
/// top bits. Every key value is storable — 0, INT64_MIN and INT64_MAX
/// included — because a free slot is marked by its value, not its key:
/// stored values must be below kNotFound.
///
/// Compared with std::unordered_map this costs 16 bytes per slot and no
/// per-entry allocation, and a lookup touches one cache line in the
/// common case — the hash aggregation of a high-cardinality DISTINCT and
/// the NUC discovery scan spend most of their time here.
class FlatI64Map {
 public:
  /// Returned by Find for an absent key; never a valid stored value.
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  FlatI64Map() = default;
  explicit FlatI64Map(std::size_t expected) { Reserve(expected); }

  std::size_t size() const { return size_; }
  /// Allocated slots (a power of two, or 0 before the first insert).
  std::size_t capacity() const { return slots_.size(); }
  /// Heap bytes of the slot array — what memory accounting charges.
  std::uint64_t ApproxBytes() const {
    return static_cast<std::uint64_t>(slots_.capacity()) * sizeof(Slot);
  }

  /// Sizes the table so `expected` keys fit without a rehash.
  void Reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (!Fits(expected, cap)) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Drops every entry and releases the slot array.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
    shift_ = 64;
  }

  /// The value stored for `key`, inserting `value` first when the key is
  /// absent; `.second` tells whether the insert happened.
  std::pair<std::size_t, bool> FindOrInsert(std::int64_t key,
                                            std::size_t value) {
    PIDX_DCHECK(value != kEmpty);
    if (!Fits(size_ + 1, slots_.size())) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = SlotOf(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.value == kEmpty) {
        s.key = key;
        s.value = value;
        ++size_;
        return {value, true};
      }
      if (s.key == key) return {s.value, false};
    }
  }

  /// The value stored for `key`, or kNotFound.
  std::size_t Find(std::int64_t key) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = SlotOf(key);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.value == kEmpty) return kNotFound;
      if (s.key == key) return s.value;
    }
  }

  /// Starts loading the first slot `key` probes into cache. A scan that
  /// prefetches a few keys ahead overlaps the table's cache misses — on a
  /// table larger than the cache, most of a lookup's cost.
  void Prefetch(std::int64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[SlotOf(key)]);
  }

  /// Calls `fn(key, value)` for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.value != kEmpty) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    std::size_t value = kEmpty;
  };
  static constexpr std::size_t kEmpty = kNotFound;
  static constexpr std::size_t kMinCapacity = 16;

  /// Maximum load factor 3/4: linear probing stays short while a table
  /// holding n keys needs at most 8n/3 slots.
  static bool Fits(std::size_t n, std::size_t cap) {
    return n * 4 <= cap * 3;
  }

  std::size_t SlotOf(std::int64_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Rehash(std::size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    const std::size_t mask = cap - 1;
    for (const Slot& s : old) {
      if (s.value == kEmpty) continue;
      std::size_t i = SlotOf(s.key);
      while (slots_[i].value != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_FLAT_I64_MAP_H_
