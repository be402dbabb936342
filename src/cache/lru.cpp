#include "cache/lru.hpp"

namespace coop::cache {

void LruList::insert(const BlockId& b, std::uint64_t age) {
  assert(!contains(b));
  // Insert after the last entry with age <= the new age, so equal ages keep
  // their insertion order. Newly-touched blocks (the common case) land at
  // the back in O(1). Otherwise one cursor walks in from each end until
  // either reaches that slot — seen from the front it is "before the first
  // entry with age > the new age" — so a forwarded old block, which belongs
  // near the front, costs twice its distance from the nearer end instead of
  // a walk over the whole list.
  auto pos = list_.end();
  if (!list_.empty() && age < list_.back().age) {
    auto front = list_.begin();
    while (front->age <= age && std::prev(pos)->age > age) {
      ++front;
      --pos;
    }
    if (front->age > age) pos = front;
  }
  const auto it = list_.insert(pos, Entry{b, age});
  index_.emplace(b, it);
}

void LruList::touch(const BlockId& b, std::uint64_t age) {
  const auto it = index_.find(b);
  assert(it != index_.end());
  assert(age >= it->second->age);
  list_.erase(it->second);
  // Touched entries carry a fresh (maximal) age, so they belong at the back.
  const auto pos = list_.insert(list_.end(), Entry{b, age});
  it->second = pos;
}

bool LruList::erase(const BlockId& b) {
  const auto it = index_.find(b);
  if (it == index_.end()) return false;
  list_.erase(it->second);
  index_.erase(it);
  return true;
}

LruList::Entry LruList::pop_oldest() {
  assert(!empty());
  Entry e = list_.front();
  list_.pop_front();
  index_.erase(e.block);
  return e;
}

}  // namespace coop::cache
