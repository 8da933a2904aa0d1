// Insertion-order-preserving hash map and set.
//
// The datasets and classification output are saved, snapshotted, and
// re-exported; byte-identical roundtrips require that iteration order be
// a property of the data, not of a hash table's layout. StableMap/
// StableSet keep entries in a vector (insertion order) and find them
// through a util::FlatIndex (flat_index.hpp): one flat open-addressing
// table of packed (hash tag, position) words over that vector, with no
// second copy of the keys and no per-key heap node. Erase is deliberately
// unsupported — the datasets only ever accumulate. References to entries
// are invalidated by any insertion (the vector may reallocate), never by
// a lookup.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <utility>
#include <vector>

#include "cellspot/util/flat_index.hpp"

namespace cellspot::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class StableMap {
 public:
  using Entry = std::pair<Key, Value>;

  StableMap() = default;

  /// Entries in list order; a repeated key keeps its first value.
  StableMap(std::initializer_list<Entry> init) {
    reserve(init.size());
    for (const Entry& e : init) Emplace(e.first, e.second);
  }

  /// Value for `key`, default-constructed and appended on first access.
  Value& operator[](const Key& key) {
    const std::size_t pos =
        index_.FindOrAppend(key, KeyAt(), [&] { entries_.emplace_back(key, Value{}); }).first;
    return entries_[pos].second;
  }

  /// Insert (key, value) if absent; returns false (and leaves the map
  /// unchanged) when the key already exists.
  bool Emplace(const Key& key, Value value) {
    return index_
        .FindOrAppend(key, KeyAt(), [&] { entries_.emplace_back(key, std::move(value)); })
        .second;
  }

  [[nodiscard]] const Value* Find(const Key& key) const noexcept {
    const std::size_t pos = index_.Find(key, KeyAt());
    return pos == Index::kNpos ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] Value* Find(const Key& key) noexcept {
    const std::size_t pos = index_.Find(key, KeyAt());
    return pos == Index::kNpos ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.Find(key, KeyAt()) != Index::kNpos;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Room for `n` entries without regrowth. Throws std::length_error past
  /// 2^32 - 2 entries.
  void reserve(std::size_t n) {
    index_.Reserve(n, KeyAt());
    entries_.reserve(n);
  }

  /// Iteration in insertion order. Mutable iteration exposes the key by
  /// reference too; callers must not modify it (the index would go stale).
  [[nodiscard]] auto begin() noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() noexcept { return entries_.end(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Map equality: same entries, insertion order ignored.
  [[nodiscard]] bool operator==(const StableMap& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& [key, value] : entries_) {
      const Value* theirs = other.Find(key);
      if (theirs == nullptr || !(*theirs == value)) return false;
    }
    return true;
  }

 private:
  using Index = FlatIndex<Key, Hash>;

  [[nodiscard]] auto KeyAt() const noexcept {
    return [this](std::size_t pos) -> const Key& { return entries_[pos].first; };
  }

  std::vector<Entry> entries_;
  Index index_;
};

template <typename Key, typename Hash = std::hash<Key>>
class StableSet {
 public:
  StableSet() = default;

  /// Members in iteration order of [first, last), duplicates dropped.
  template <typename It>
  StableSet(It first, It last) {
    for (; first != last; ++first) Insert(*first);
  }

  /// Insert `key` if absent; returns false when it was already present.
  bool Insert(const Key& key) {
    return index_.FindOrAppend(key, KeyAt(), [&] { entries_.push_back(key); }).second;
  }

  [[nodiscard]] bool Contains(const Key& key) const noexcept {
    return index_.Find(key, KeyAt()) != Index::kNpos;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Room for `n` members without regrowth. Throws std::length_error past
  /// 2^32 - 2 members.
  void reserve(std::size_t n) {
    index_.Reserve(n, KeyAt());
    entries_.reserve(n);
  }

  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Set equality: same members, insertion order ignored.
  [[nodiscard]] bool operator==(const StableSet& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& key : entries_) {
      if (!other.Contains(key)) return false;
    }
    return true;
  }

 private:
  using Index = FlatIndex<Key, Hash>;

  [[nodiscard]] auto KeyAt() const noexcept {
    return [this](std::size_t pos) -> const Key& { return entries_[pos]; };
  }

  std::vector<Key> entries_;
  Index index_;
};

}  // namespace cellspot::util
