// The timer server's session table: RequestId cookie -> Registration, stored
// inline in a flat open-addressing array.
//
// The paper makes START/STOP O(1) by keeping each timer in one preallocated
// record the handle points to (Section 3, Scheme 2). The server's table in
// front of the host scheme follows the same rule: a registration lives inline
// in a slot of a power-of-two std::vector, so setting, firing and cancelling a
// timer allocate nothing once the table has grown to the working set.
//
//  * Lookup: a Fibonacci hash of the whole 64-bit cookie picks the home slot;
//    collisions probe linearly.
//  * Erase: backward shift (Knuth 6.4, Algorithm R) pulls later members of the
//    probe chain into the hole, so there are no tombstones and a lookup stops
//    at the first empty slot.
//  * Growth: the array doubles once an insert would pass 7/8 load.
//  * Occupancy: a slot is occupied iff its registration's handle is valid().
//    Every registration holds the valid handle its host returned, so no key
//    value is reserved and cookie 0 is an ordinary key.
//
// Not thread-safe: the server guards each stripe's table with the stripe
// mutex. Pointers returned by Find() stay valid until the next Insert() or
// Erase().

#ifndef TWHEEL_SRC_NET_SESSION_TABLE_H_
#define TWHEEL_SRC_NET_SESSION_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/types.h"

namespace twheel::net {

// One live timer as the server sees it.
struct Registration {
  TimerHandle handle;
  // Laps still owed, mirroring the host's repeat budget: 0 = forever,
  // 1 = next fire is final. One-shots store 1, so a registration stays armed
  // after a fire iff remaining != 1.
  std::uint64_t remaining = 1;
};

class SessionTable {
 public:
  struct Entry {
    RequestId key = 0;
    Registration reg;
  };

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  SessionTable()
      : slots_(kInitialCapacity),
        shift_(64 - std::countr_zero(kInitialCapacity)) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // The slot `key`'s probe chain starts at: the top log2(capacity) bits of
  // its Fibonacci hash.
  std::size_t HomeSlot(RequestId key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // The slot `entry` (from Find()) occupies.
  std::size_t SlotIndex(const Entry* entry) const {
    return static_cast<std::size_t>(entry - slots_.data());
  }

  // The entry for `key`, or nullptr.
  Entry* Find(RequestId key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
      Entry& e = slots_[i];
      if (!Occupied(e)) {
        return nullptr;
      }
      if (e.key == key) {
        return &e;
      }
    }
  }

  // Adds `key` -> `reg`. `key` must be absent and `reg.handle` valid.
  void Insert(RequestId key, const Registration& reg) {
    TWHEEL_ASSERT_MSG(reg.handle.valid(), "a registration needs a live handle");
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Grow();
    }
    Place(Entry{key, reg});
    ++size_;
  }

  // Removes the entry Find() returned.
  void Erase(Entry* entry) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = SlotIndex(entry);
    for (std::size_t j = (hole + 1) & mask; Occupied(slots_[j]);
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

 private:
  static bool Occupied(const Entry& e) { return e.reg.handle.valid(); }

  // Links `e` at the first free slot of its probe chain; the key is absent.
  void Place(const Entry& e) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = HomeSlot(e.key);
    while (Occupied(slots_[i])) {
      i = (i + 1) & mask;
    }
    slots_[i] = e;
  }

  void Grow() {
    const std::vector<Entry> old =
        std::exchange(slots_, std::vector<Entry>(slots_.size() * 2));
    --shift_;
    for (const Entry& e : old) {
      if (Occupied(e)) {
        Place(e);
      }
    }
  }

  std::vector<Entry> slots_;
  int shift_;  // 64 - log2(capacity)
  std::size_t size_ = 0;
};

static_assert(sizeof(SessionTable::Entry) == 24,
              "a slot is the cookie plus {handle, remaining}, nothing more");

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_SESSION_TABLE_H_
