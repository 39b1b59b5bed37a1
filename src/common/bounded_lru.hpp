// A small exact LRU for the handful of distinct keys one run sees (the
// engine's circuit interner and the simulator's placed-part cache). Entries
// sit in one flat vector and a lookup scans their 64-bit hashes, so a hit
// costs a few compares and never allocates; a hash match counts only when
// the caller's full-equality check agrees. Both users cache a pure function
// of the key, so whether a lookup hits never changes a result.
//
// Not thread-safe, by design: every owner is confined to one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace cloudqc {

template <typename Value>
class BoundedLru {
 public:
  explicit BoundedLru(std::size_t capacity) : capacity_(capacity) {
    CLOUDQC_CHECK(capacity_ >= 1);
    slots_.reserve(capacity_);
  }

  /// The entry with `hash` whose value satisfies `equal`, marked most
  /// recently used; null when there is none.
  template <typename Equal>
  const Value* find(std::uint64_t hash, Equal&& equal) {
    for (Slot& slot : slots_) {
      if (slot.hash == hash && equal(slot.value)) {
        slot.last_use = ++clock_;
        return &slot.value;
      }
    }
    return nullptr;
  }

  /// Insert a value the caller just missed on; at capacity the least
  /// recently used entry is evicted, so size() never exceeds the capacity.
  const Value& insert(std::uint64_t hash, Value value) {
    Slot* slot = nullptr;
    if (slots_.size() < capacity_) {
      slot = &slots_.emplace_back();
    } else {
      slot = &slots_.front();
      for (Slot& s : slots_) {
        if (s.last_use < slot->last_use) slot = &s;
      }
    }
    slot->hash = hash;
    slot->last_use = ++clock_;
    slot->value = std::move(value);
    return slot->value;
  }

  std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint64_t last_use = 0;
    Value value{};
  };

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::uint64_t clock_ = 0;
};

}  // namespace cloudqc
