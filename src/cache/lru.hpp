// Age-ordered LRU list keyed by BlockId.
//
// Ages are logical timestamps from a shared LogicalClock; the list is kept in
// ascending age order (front = oldest). Unlike a plain LRU, entries can be
// *inserted with an old age* — a block forwarded between nodes keeps its age
// (§3) and belongs near the front — so insertion searches from both ends at
// once for its position.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "cache/types.hpp"

namespace coop::cache {

class LruList {
 public:
  struct Entry {
    BlockId block;
    std::uint64_t age;
  };

  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] bool contains(const BlockId& b) const {
    return index_.count(b) > 0;
  }

  /// Age of the oldest entry. Precondition: !empty().
  [[nodiscard]] std::uint64_t oldest_age() const {
    assert(!empty());
    return list_.front().age;
  }

  /// Oldest entry. Precondition: !empty().
  [[nodiscard]] const Entry& oldest() const {
    assert(!empty());
    return list_.front();
  }

  [[nodiscard]] std::uint64_t age_of(const BlockId& b) const {
    const auto it = index_.find(b);
    assert(it != index_.end());
    return it->second->age;
  }

  /// Inserts a block with the given age. The block must not be present.
  void insert(const BlockId& b, std::uint64_t age);

  /// Updates a present block's age (typically to "now", moving it to MRU).
  void touch(const BlockId& b, std::uint64_t age);

  /// Removes a block. Returns false if it was not present.
  bool erase(const BlockId& b);

  /// Removes and returns the oldest entry. Precondition: !empty().
  Entry pop_oldest();

  /// Iteration (oldest to youngest) for tests and invariant checks.
  [[nodiscard]] auto begin() const { return list_.begin(); }
  [[nodiscard]] auto end() const { return list_.end(); }

 private:
  using List = std::list<Entry>;
  List list_;  // ascending age: front oldest, back youngest
  std::unordered_map<BlockId, List::iterator, BlockIdHash> index_;
};

}  // namespace coop::cache
