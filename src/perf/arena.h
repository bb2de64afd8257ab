// Steady-state allocation control for the hot paths: object pools that
// recycle interval-tracking structures across epochs, and a flat sorted set
// that replaces std::set for per-interval page tracking.
//
// The contract these types exist to meet (pinned by
// tests/race/simd_kernels_test.cc): once a workload reaches steady state —
// every epoch touching the same pages as the last — the pools report zero
// misses, i.e. the hot path performs no allocation beyond what vectors
// already cached.
//
// Layering: like kernels.h, this unit depends only on the standard library.
#ifndef CVM_PERF_ARENA_H_
#define CVM_PERF_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cvm {
namespace perf {

struct PoolStats {
  // Acquire satisfied from the free list (no allocation).
  uint64_t hits = 0;
  // Acquire that had to construct a fresh object.
  uint64_t misses = 0;
  // Release dropped because the pool was at capacity.
  uint64_t discards = 0;
};

// A free-list recycler for T. Acquire() pops a previously released object
// (caller resets it) or default-constructs one; Release() parks the object
// for reuse. T must be movable. The pool keeps at most `max_free` parked
// objects so a one-off burst cannot pin memory forever.
//
// Not thread-safe: each pool lives inside one engine (BitmapStore,
// IntervalLog, detector shard) whose own locking already serializes access.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t max_free = 4096) : max_free_(max_free) {}

  T Acquire() {
    if (!free_.empty()) {
      T obj = std::move(free_.back());
      free_.pop_back();
      ++stats_.hits;
      return obj;
    }
    ++stats_.misses;
    return T{};
  }

  void Release(T obj) {
    if (free_.size() >= max_free_) {
      ++stats_.discards;
      return;
    }
    free_.push_back(std::move(obj));
  }

  const PoolStats& stats() const { return stats_; }
  size_t free_count() const { return free_.size(); }

 private:
  std::vector<T> free_;
  size_t max_free_;
  PoolStats stats_;
};

// A sorted-unique flat set of integer ids, replacing std::set on the
// access-tracking hot path (Node's cur_reads_/cur_writes_). Insertion is
// O(n) worst case but the working sets are small (pages touched per
// interval) and — unlike std::set — clear() keeps the heap buffer, so a
// steady-state interval inserts into cached capacity and allocates nothing.
template <typename Id>
class FlatIdSet {
 public:
  using const_iterator = typename std::vector<Id>::const_iterator;

  // Returns true if the id was newly inserted.
  bool Insert(Id id) {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) {
      return false;
    }
    ids_.insert(it, id);
    return true;
  }

  bool Contains(Id id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }

  void Clear() { ids_.clear(); }  // Keeps capacity.
  bool Empty() const { return ids_.empty(); }
  size_t Size() const { return ids_.size(); }
  size_t Capacity() const { return ids_.capacity(); }

  // Ascending iteration — same order std::set gave callers.
  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  const std::vector<Id>& ids() const { return ids_; }

 private:
  std::vector<Id> ids_;
};

}  // namespace perf
}  // namespace cvm

#endif  // CVM_PERF_ARENA_H_
