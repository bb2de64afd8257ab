// The runtime half of the ATOM instrumentation (§4): the analysis routine
// that every instrumented load/store calls. It decides — by comparing the
// access address against the shared data segment bounds — whether the access
// touches shared memory, and if so which page/word, so the caller can set
// the per-interval access bitmap.
//
// The simulated process address space places the shared segment and private
// (but not statically provable private) data at disjoint ranges, so the
// check is the same bounds comparison the paper performs.
#ifndef CVM_INSTR_ACCESS_FILTER_H_
#define CVM_INSTR_ACCESS_FILTER_H_

#include <array>
#include <bit>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/instr/counters.h"

namespace cvm {

// Simulated virtual-address layout.
inline constexpr uint64_t kSharedSegmentBase = 0x4000'0000ull;
inline constexpr uint64_t kPrivateHeapBase = 0x8000'0000'0000ull;

inline constexpr uint64_t SharedVa(GlobalAddr addr) { return kSharedSegmentBase + addr; }

class AccessFilter {
 public:
  AccessFilter(uint64_t page_size, uint64_t shared_bytes)
      : page_shift_(static_cast<uint32_t>(std::countr_zero(page_size))),
        page_mask_(page_size - 1),
        shared_limit_(kSharedSegmentBase + shared_bytes) {
    CVM_CHECK(std::has_single_bit(page_size)) << "page size " << page_size
                                              << " is not a power of two";
  }

  struct Result {
    bool shared = false;
    PageId page = -1;
    uint32_t word = 0;
  };

  // The analysis routine body: bounds check + page/word decomposition.
  // Counters record the call either way (the majority of runtime calls are
  // for private data — §5.1).
  Result OnAccess(uint64_t va, bool is_write) {
    Result result;
    if (va < kSharedSegmentBase || va >= shared_limit_) {
      ++private_accesses_;
      return result;
    }
    CountShared(is_write);
    const uint64_t offset = va - kSharedSegmentBase;
    result.shared = true;
    result.page = static_cast<PageId>(offset >> page_shift_);
    result.word = WordInPage(offset & page_mask_);
    return result;
  }

  // Counts one call that the caller already knows hits the shared segment
  // (the node's page-cache hit path: a cached page is a segment page).
  void CountShared(bool is_write) { ++shared_accesses_[is_write ? 1 : 0]; }

  // One counter moves per call; the totals are derived.
  AccessCounters counters() const {
    AccessCounters c;
    c.shared_reads = shared_accesses_[0];
    c.shared_writes = shared_accesses_[1];
    c.private_accesses = private_accesses_;
    c.shared_accesses = c.shared_reads + c.shared_writes;
    c.instrumented_calls = c.shared_accesses + c.private_accesses;
    return c;
  }

 private:
  uint32_t page_shift_;
  uint64_t page_mask_;
  uint64_t shared_limit_;
  std::array<uint64_t, 2> shared_accesses_ = {};  // [0] reads, [1] writes.
  uint64_t private_accesses_ = 0;
};

}  // namespace cvm

#endif  // CVM_INSTR_ACCESS_FILTER_H_
