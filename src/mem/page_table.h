// Per-node view of the shared segment: one PageEntry per page the node has
// touched, holding the node's private copy (if any), its protection state,
// and the multi-writer twin. Entries are created on first mutable access, so
// the table's memory is proportional to the pages a run touches, not to the
// segment size; an absent entry reads as an invalid page with no data. A
// copy that is all zero and that nobody has written (a zero frame) holds no
// storage either: reads go to one shared read-only zero page.
#ifndef CVM_MEM_PAGE_TABLE_H_
#define CVM_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "src/common/check.h"
#include "src/common/sparse_page_map.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace cvm {

// Protection state of a node's copy of one page. Transitions mirror the
// page-fault behaviour of a mprotect-based DSM:
//   kInvalid -> (read fault, fetch) -> kReadOnly -> (write fault) -> kReadWrite
// and write notices received at acquires knock pages back to kInvalid.
enum class PageState : uint8_t {
  kInvalid,    // No usable copy; any access faults.
  kReadOnly,   // Valid copy; writes fault.
  kReadWrite,  // Valid, locally writable copy.
};

const char* PageStateName(PageState state);

struct PageEntry {
  PageState state = PageState::kInvalid;
  // A zero frame: the copy is page-size zeros, `data` is empty, and reads
  // go through the table's shared zero page. Never writable: a write
  // materializes the frame first. Like data, it survives invalidation.
  bool zero = false;
  std::vector<uint8_t> data;  // Empty until first fetched, and in a zero frame.
  std::optional<std::vector<uint8_t>> twin;  // Multi-writer twin, if write-faulted.
};

class PageTable {
 public:
  // `zero_page` is page_size zero bytes that outlive the table, shared by
  // every table of a system. A table without one holds no zero frames.
  PageTable(int num_pages, uint64_t page_size, const uint8_t* zero_page = nullptr);

  int num_pages() const { return num_pages_; }
  uint64_t page_size() const { return page_size_; }

  // Number of pages holding an entry (pages this node has touched).
  size_t num_entries() const { return entries_.size(); }

  // Optional observability sinks (any may be null, all owned by the caller):
  // twin creation emits a trace instant, installs/invalidations bump the
  // counters.
  void AttachObservability(obs::Tracer* tracer, NodeId node, obs::Counter* twins,
                           obs::Counter* installs, obs::Counter* invalidations);

  // The entry for `page`, created (invalid, no data) on first use.
  PageEntry& entry(PageId page) {
    CheckPage(page);
    return entries_.GetOrCreate(page);
  }
  // The entry for `page`, or null if the node never touched it. Never
  // creates an entry: whole-segment scans use this.
  const PageEntry* Find(PageId page) const {
    CheckPage(page);
    return entries_.Find(page);
  }

  // Calls fn(page, entry) for every page holding an entry, ascending.
  template <typename Fn>
  void ForEachEntry(const Fn& fn) const {
    entries_.ForEach(fn);
  }

  bool Readable(PageId page) const {
    const PageEntry* e = Find(page);
    return e != nullptr && e->state != PageState::kInvalid;
  }
  bool Writable(PageId page) const {
    const PageEntry* e = Find(page);
    return e != nullptr && e->state == PageState::kReadWrite;
  }

  // The bytes a read of `e` sees: its data, or the shared zero page for a
  // zero frame. Page-size unless `e` is an entry without a copy.
  const uint8_t* ReadView(const PageEntry& e) const {
    return e.zero ? zero_page_ : e.data.data();
  }

  // Reads/writes one aligned word of the node's copy. The page must be in a
  // state permitting the access (the caller handles faults first).
  uint32_t ReadWord(PageId page, uint32_t word) const {
    const PageEntry* e = Find(page);
    CVM_CHECK(e != nullptr && e->state != PageState::kInvalid)
        << "read of invalid page " << page;
    CVM_CHECK(e->zero || e->data.size() == page_size_) << "page " << page << " has no copy";
    CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
    uint32_t value;
    std::memcpy(&value, ReadView(*e) + word * kWordSize, kWordSize);
    return value;
  }
  void WriteWord(PageId page, uint32_t word, uint32_t value) {
    CheckPage(page);
    PageEntry* e = entries_.Find(page);
    CVM_CHECK(e != nullptr && e->state == PageState::kReadWrite)
        << "write to non-writable page " << page;
    CVM_CHECK(!e->zero) << "write to zero frame " << page;
    CVM_CHECK_EQ(e->data.size(), page_size_);
    CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
    std::memcpy(e->data.data() + word * kWordSize, &value, kWordSize);
  }

  // Installs fetched contents and sets the state.
  void Install(PageId page, std::vector<uint8_t> data, PageState state);
  // Installs a zero frame (page-size zeros held as no storage) in `state`,
  // which must not be kReadWrite.
  void InstallZero(PageId page, PageState state);
  // Gives a zero frame its own page-size zero bytes, so it can be written;
  // any other entry is left as it is.
  PageEntry& Materialize(PageId page);
  // A copy of the node's bytes for `page`: page-size zeros for a zero frame.
  std::vector<uint8_t> Copy(PageId page) const;

  // Invalidate per an incoming write notice. Keeps the (stale) data so tests
  // can observe weak-memory staleness, but faults will refetch. A page the
  // node never touched is already invalid and stays entry-free.
  void Invalidate(PageId page);

  // Multi-writer helpers. MakeTwin materializes a zero frame first.
  void MakeTwin(PageId page);
  void DropTwin(PageId page) { entry(page).twin.reset(); }

 private:
  void CheckPage(PageId page) const {
    CVM_CHECK_GE(page, 0);
    CVM_CHECK_LT(page, num_pages_);
  }

  int num_pages_;
  uint64_t page_size_;
  const uint8_t* zero_page_;
  SparsePageMap<PageEntry> entries_;

  obs::Tracer* tracer_ = nullptr;
  NodeId obs_node_ = 0;
  obs::Counter* twins_counter_ = nullptr;
  obs::Counter* installs_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
};

}  // namespace cvm

#endif  // CVM_MEM_PAGE_TABLE_H_
