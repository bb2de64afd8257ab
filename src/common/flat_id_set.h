// A sorted-unique flat set of integer ids, replacing std::set on the
// access-tracking hot path (Node's cur_reads_/cur_writes_). Insertion is
// O(n) worst case but the working sets are small (pages touched per
// interval) and — unlike std::set — clear() keeps the heap buffer, so a
// steady-state interval inserts into cached capacity and allocates nothing.
#ifndef CVM_COMMON_FLAT_ID_SET_H_
#define CVM_COMMON_FLAT_ID_SET_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cvm {

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

}  // namespace cvm

#endif  // CVM_COMMON_FLAT_ID_SET_H_
