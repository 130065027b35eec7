// A 64-bit key -> Value map stored inline in a flat open-addressing array.
//
// The paper makes START/STOP O(1) by keeping each timer in one preallocated
// record the handle points to (Section 3, Scheme 2). The tables in front of a
// host scheme follow the same rule: the timer server's session table and the
// cluster's coordinator and replica tables keep their records inline in the
// slots of a power-of-two std::vector, so inserting, finding and erasing a
// record allocate nothing once the table has grown to the working set.
//
//  * Lookup: a Fibonacci hash of the whole 64-bit key picks the home slot;
//    collisions probe linearly.
//  * Erase: backward shift (Knuth 6.4, Algorithm R) pulls later members of the
//    probe chain into the hole, so there are no tombstones and a lookup stops
//    at the first empty slot.
//  * Growth: the array doubles once an insert would pass 7/8 load.
//  * Occupancy: the value type supplies it, as `bool occupied() const`, and a
//    default-constructed Value must not be occupied. No key value is reserved,
//    so key 0 is an ordinary key.
//
// Not thread-safe. Pointers returned by Find() and Insert() stay valid until
// the next Insert(), Erase() or Clear(): a growth moves every record, and a
// backward shift moves the members of the erased record's chain.

#ifndef TWHEEL_SRC_BASE_FLAT_TABLE_H_
#define TWHEEL_SRC_BASE_FLAT_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"

namespace twheel {

template <typename Value>
class FlatTable {
 public:
  struct Entry {
    std::uint64_t key = 0;
    Value value{};
  };

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  FlatTable()
      : slots_(kInitialCapacity),
        shift_(64 - std::countr_zero(kInitialCapacity)) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // The slot `key`'s probe chain starts at: the top log2(capacity) bits of
  // its Fibonacci hash.
  std::size_t HomeSlot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // The slot `entry` (from Find() or Insert()) occupies.
  std::size_t SlotIndex(const Entry* entry) const {
    return static_cast<std::size_t>(entry - slots_.data());
  }

  // The entry for `key`, or nullptr.
  Entry* Find(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
      Entry& e = slots_[i];
      if (!e.value.occupied()) {
        return nullptr;
      }
      if (e.key == key) {
        return &e;
      }
    }
  }

  // Adds `key` -> `value` and returns its entry. `key` must be absent and
  // `value` occupied.
  Entry* Insert(std::uint64_t key, const Value& value) {
    TWHEEL_ASSERT_MSG(value.occupied(), "an inserted record must be occupied");
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Grow();
    }
    ++size_;
    return Place(Entry{key, value});
  }

  // Removes the entry Find() or Insert() returned.
  void Erase(Entry* entry) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = SlotIndex(entry);
    for (std::size_t j = (hole + 1) & mask; slots_[j].value.occupied();
         j = (j + 1) & mask) {
      // slots_[j] may fill the hole iff the hole lies on its probe path, i.e.
      // cyclically within [home, j).
      if (((j - HomeSlot(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Entry{};
    --size_;
  }

  // Empties the table, keeping its capacity.
  void Clear() {
    slots_.assign(slots_.size(), Entry{});
    size_ = 0;
  }

  // Calls fn(key, value&) for every entry, in slot order. `fn` must not
  // insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Entry& e : slots_) {
      if (e.value.occupied()) {
        fn(e.key, e.value);
      }
    }
  }

 private:
  // Links `e` at the first free slot of its probe chain; the key is absent.
  Entry* Place(const Entry& e) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = HomeSlot(e.key);
    while (slots_[i].value.occupied()) {
      i = (i + 1) & mask;
    }
    slots_[i] = e;
    return &slots_[i];
  }

  void Grow() {
    const std::vector<Entry> old =
        std::exchange(slots_, std::vector<Entry>(slots_.size() * 2));
    --shift_;
    for (const Entry& e : old) {
      if (e.value.occupied()) {
        Place(e);
      }
    }
  }

  std::vector<Entry> slots_;
  int shift_;  // 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace twheel

#endif  // TWHEEL_SRC_BASE_FLAT_TABLE_H_
