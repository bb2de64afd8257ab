// The global shared address space. One SharedSegment describes the layout
// (page size, page count) and holds the initial contents; each node keeps
// private copies of pages in its PageTable, kept consistent by the protocol.
#ifndef CVM_MEM_SHARED_SEGMENT_H_
#define CVM_MEM_SHARED_SEGMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace cvm {

// Describes one named allocation, used to symbolize race reports (§6.1:
// "In combination with symbol tables, this information can be used to
// identify the exact variable").
struct Symbol {
  std::string name;
  GlobalAddr base = 0;
  uint64_t size = 0;
};

class SharedSegment {
 public:
  SharedSegment(uint64_t page_size, uint64_t max_bytes);

  uint64_t page_size() const { return page_size_; }
  int num_pages() const { return static_cast<int>(num_pages_); }
  uint64_t size_bytes() const { return num_pages_ * page_size_; }
  uint64_t used_bytes() const { return next_free_; }

  PageId PageOf(GlobalAddr addr) const {
    CVM_CHECK_LT(addr, size_bytes());
    return static_cast<PageId>(addr / page_size_);
  }
  uint64_t OffsetInPage(GlobalAddr addr) const { return addr % page_size_; }

  bool Contains(GlobalAddr addr) const { return addr < next_free_; }

  // Allocates `bytes` under `name`; allocations are page-granular when
  // `page_align` is set (the default for arrays, to limit false sharing the
  // way real DSM apps lay out data) and word-granular otherwise.
  GlobalAddr Alloc(const std::string& name, uint64_t bytes, bool page_align = true);

  // Maps an address back to "symbol+offset" for race reports.
  std::string Symbolize(GlobalAddr addr) const;

  const std::vector<Symbol>& symbols() const { return symbols_; }

  // Initial contents of a page, served by the page's home node to first
  // readers. All-zero unless a test poked values in. Only poked pages are
  // stored, so the segment costs memory for what was poked, not for its
  // size.
  std::vector<uint8_t> InitialPage(PageId page) const;
  // The poked initial contents of `page`, or null if the page is all-zero.
  const std::vector<uint8_t>* PokedPage(PageId page) const;
  void PokeInitial(GlobalAddr addr, const void* data, uint64_t bytes);

 private:
  uint64_t page_size_;
  uint64_t num_pages_;
  uint64_t next_free_ = 0;
  std::vector<Symbol> symbols_;
  // Poked pages only, page_size_ bytes each; every other page is all-zero.
  std::map<PageId, std::vector<uint8_t>> poked_;
};

}  // namespace cvm

#endif  // CVM_MEM_SHARED_SEGMENT_H_
