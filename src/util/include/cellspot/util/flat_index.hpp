// Flat open-addressing hash index over the positions of a caller-owned
// key sequence.
//
// The index stores no keys: each slot is one 64-bit word packing a
// 32-bit hash tag (high half) and position + 1 (low half), with 0
// meaning empty. Lookups probe linearly from the slot the mixed hash
// selects, compare tags first and call back into the caller's sequence
// (`key_at(position)`) only on a tag match. The capacity is a power of
// two and the load is kept at or below one half; growing rebuilds the
// slots from the sequence itself. Positions are handed out in order, so
// position i always names the i-th key appended — the caller's sequence
// is the insertion order, and the index is derived data that never moves
// an element of it.
//
// StableMap/StableSet (stable_map.hpp) index their entry vectors with
// it, and simnet::World indexes its subnet vector by block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cellspot::util {

template <typename Key, typename Hash = std::hash<Key>>
class FlatIndex {
 public:
  /// Returned by Find for an absent key.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  /// Largest number of positions one index holds: position + 1 must fit
  /// the 32-bit half of a slot, and 2^32 - 1 is reserved.
  static constexpr std::size_t kMaxSize = 0xFFFF'FFFEULL;

  FlatIndex() = default;
  FlatIndex(const FlatIndex&) = default;
  FlatIndex& operator=(const FlatIndex&) = default;
  // A moved-from index is empty, like the moved-from sequence it indexed.
  FlatIndex(FlatIndex&& other) noexcept
      : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {}
  FlatIndex& operator=(FlatIndex&& other) noexcept {
    slots_ = std::exchange(other.slots_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  ~FlatIndex() = default;

  /// Number of positions indexed (0 .. size() - 1).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Position of `key`, or kNpos. `key_at(p)` returns the key stored at
  /// position p of the caller's sequence.
  template <typename KeyAt>
  [[nodiscard]] std::size_t Find(const Key& key, const KeyAt& key_at) const noexcept {
    if (size_ == 0) return kNpos;
    return Locate(key, Mix(Hash{}(key)), key_at).position;
  }

  /// Position of `key` and false when it is indexed. Otherwise calls
  /// `append()` — which must store `key` at position size() of the
  /// caller's sequence — then indexes that position and returns it with
  /// true. If `append` throws, the index is left as it was (possibly
  /// grown). Throws std::length_error past kMaxSize positions.
  template <typename KeyAt, typename Append>
  std::pair<std::size_t, bool> FindOrAppend(const Key& key, const KeyAt& key_at,
                                            Append&& append) {
    // Grow before probing so the empty slot found below stays valid.
    if (2 * (size_ + 1) > slots_.size()) Rebuild(size_ + 1, key_at);
    const std::uint64_t h = Mix(Hash{}(key));
    const Probe probe = Locate(key, h, key_at);
    if (probe.position != kNpos) return {probe.position, false};
    if (size_ == kMaxSize) throw std::length_error("FlatIndex: more than 2^32 - 2 keys");
    append();
    slots_[probe.slot] = Pack(h, size_);
    return {size_++, true};
  }

  /// Size the slots for `n` positions without further growth. Throws
  /// std::length_error when n exceeds kMaxSize.
  template <typename KeyAt>
  void Reserve(std::size_t n, const KeyAt& key_at) {
    if (n > kMaxSize) throw std::length_error("FlatIndex: more than 2^32 - 2 keys");
    if (2 * n > slots_.size()) Rebuild(n, key_at);
  }

 private:
  // The 64-bit finalizer of MurmurHash3: std::hash of an integer is the
  // identity, so low bits alone would cluster sequential keys.
  static std::uint64_t Mix(std::uint64_t h) noexcept {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return h;
  }

  // The slot for position `pos` of a key whose mixed hash is `h`: the
  // hash's high half is the tag.
  static std::uint64_t Pack(std::uint64_t h, std::size_t pos) noexcept {
    return (h & 0xFFFF'FFFF'0000'0000ULL) | static_cast<std::uint64_t>(pos + 1);
  }

  struct Probe {
    std::size_t slot;      // the key's slot, or the empty slot ending its chain
    std::size_t position;  // kNpos when the key is absent
  };

  // Linear probe from the slot `h` selects; the table must be non-empty.
  template <typename KeyAt>
  Probe Locate(const Key& key, std::uint64_t h, const KeyAt& key_at) const noexcept {
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) return {i, kNpos};
      if (static_cast<std::uint32_t>(slot >> 32) == tag) {
        const std::size_t pos = static_cast<std::uint32_t>(slot) - 1;
        if (key_at(pos) == key) return {i, pos};
      }
    }
  }

  // Re-slot positions 0 .. size_ - 1 into the smallest power-of-two
  // table (at least 16) that holds `n` at load <= 1/2.
  template <typename KeyAt>
  void Rebuild(std::size_t n, const KeyAt& key_at) {
    std::size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    std::vector<std::uint64_t> slots(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t pos = 0; pos < size_; ++pos) {
      const std::uint64_t h = Mix(Hash{}(key_at(pos)));
      std::size_t i = h & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = Pack(h, pos);
    }
    slots_ = std::move(slots);
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace cellspot::util
