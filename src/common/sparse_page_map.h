// A page-indexed map whose memory is proportional to the pages actually
// stored, not to the segment: fixed 64-page chunks are allocated on first
// insert behind a flat chunk index, and a per-chunk presence mask says which
// slots hold a value. Lookup is two array loads and a bit test — no hashing,
// no tree walk — so it can sit on the per-access hot path.
//
// Not thread-safe: each map belongs to one node, and only that node's thread
// touches it.
#ifndef CVM_COMMON_SPARSE_PAGE_MAP_H_
#define CVM_COMMON_SPARSE_PAGE_MAP_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace cvm {

template <typename T>
class SparsePageMap {
 public:
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkPages = 1u << kChunkShift;

  // Pre-sizes the chunk index for pages [0, num_pages); GetOrCreate grows it
  // on demand past that.
  explicit SparsePageMap(int num_pages = 0)
      : chunks_((static_cast<size_t>(num_pages) + kChunkPages - 1) >> kChunkShift) {}

  // The value stored for `page`, or null. Never creates anything.
  const T* Find(PageId page) const {
    const uint32_t p = static_cast<uint32_t>(page);
    const size_t c = p >> kChunkShift;
    if (c >= chunks_.size() || chunks_[c] == nullptr) {
      return nullptr;
    }
    const Chunk& chunk = *chunks_[c];
    const uint32_t slot = p & (kChunkPages - 1);
    return (chunk.present >> slot) & 1u ? &chunk.slots[slot] : nullptr;
  }
  T* Find(PageId page) {
    return const_cast<T*>(static_cast<const SparsePageMap*>(this)->Find(page));
  }

  // The value stored for `page`, value-initialized first if absent.
  T& GetOrCreate(PageId page) {
    const uint32_t p = static_cast<uint32_t>(page);
    const size_t c = p >> kChunkShift;
    if (c >= chunks_.size()) {
      chunks_.resize(c + 1);
    }
    if (chunks_[c] == nullptr) {
      chunks_[c] = std::make_unique<Chunk>();
    }
    Chunk& chunk = *chunks_[c];
    const uint32_t slot = p & (kChunkPages - 1);
    const uint64_t bit = uint64_t{1} << slot;
    if ((chunk.present & bit) == 0) {
      chunk.present |= bit;
      chunk.slots[slot] = T{};
      ++size_;
    }
    return chunk.slots[slot];
  }

  // Number of pages holding a value.
  size_t size() const { return size_; }

  // Calls fn(page, value) for every stored page, in ascending page order.
  // Visits only allocated chunks and, in each, only the set presence bits.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] == nullptr) {
        continue;
      }
      const Chunk& chunk = *chunks_[c];
      for (uint64_t present = chunk.present; present != 0; present &= present - 1) {
        const uint32_t slot = static_cast<uint32_t>(std::countr_zero(present));
        fn(static_cast<PageId>((c << kChunkShift) | slot), chunk.slots[slot]);
      }
    }
  }

  // Forgets every value but keeps the chunk storage for reuse.
  void Clear() {
    for (const std::unique_ptr<Chunk>& chunk : chunks_) {
      if (chunk != nullptr) {
        chunk->present = 0;
      }
    }
    size_ = 0;
  }

 private:
  struct Chunk {
    uint64_t present = 0;
    std::array<T, kChunkPages> slots{};
  };
  static_assert(kChunkPages == 64, "presence mask is one uint64_t");

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace cvm

#endif  // CVM_COMMON_SPARSE_PAGE_MAP_H_
