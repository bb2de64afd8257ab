// Per-node view of the shared segment: one PageEntry per page the node has
// touched, holding the node's copy of the page (if any), its protection
// state, and the multi-writer twin. Entries are created on first mutable
// access, so the table's memory is proportional to the pages a run touches,
// not to the segment size; an absent entry reads as an invalid page with no
// data. A copy is a handle to a frame, and frames are shared copy-on-write:
// a served page is the server's frame, and every page nobody has written is
// the system's one zero frame.
#ifndef CVM_MEM_PAGE_TABLE_H_
#define CVM_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
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

// One page's bytes, held by handle. Entries of any node may hold the same
// frame; a holder writes it in place only while its entry marks it unshared.
using Frame = std::shared_ptr<std::vector<uint8_t>>;

struct PageEntry {
  PageState state = PageState::kInvalid;
  // The frame may be held elsewhere, so it is read-only here and the first
  // write takes a private copy. Set when the frame leaves in a page reply,
  // when it was installed from one, and for the zero frame; never decided
  // from the frame's reference count, which other threads move.
  bool shared = false;
  bool twin_shared = false;  // The same, for the twin; unused while it is null.
  Frame frame;  // Null until first installed; survives invalidation.
  Frame twin;   // Multi-writer twin, if write-faulted.
};

class PageTable {
 public:
  PageTable(int num_pages, uint64_t page_size);

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

  // Reads/writes one aligned word of the node's copy. The page must be in a
  // state permitting the access (the caller handles faults first).
  uint32_t ReadWord(PageId page, uint32_t word) const {
    const PageEntry* e = Find(page);
    CVM_CHECK(e != nullptr && e->state != PageState::kInvalid)
        << "read of invalid page " << page;
    CVM_CHECK(e->frame != nullptr) << "page " << page << " has no copy";
    CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
    uint32_t value;
    std::memcpy(&value, e->frame->data() + word * kWordSize, kWordSize);
    return value;
  }
  // A write to a shared frame takes a private copy first.
  void WriteWord(PageId page, uint32_t word, uint32_t value) {
    CheckPage(page);
    PageEntry* e = entries_.Find(page);
    CVM_CHECK(e != nullptr && e->state == PageState::kReadWrite)
        << "write to non-writable page " << page;
    CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
    std::memcpy(MakePrivate(*e).frame->data() + word * kWordSize, &value, kWordSize);
  }

  // Installs `frame` (page-size bytes) and sets the state. `shared` says
  // whether anything else may hold the frame: a fetched one or the zero
  // frame.
  void Install(PageId page, Frame frame, PageState state, bool shared);
  // Marks the entry's frame shared and returns it: the handle a page reply
  // carries in place of a copy.
  Frame Share(PageId page);
  // Gives the entry a frame of its own if its frame is shared, so it can be
  // written; a frame swap the caller's page cache must see.
  PageEntry& MakePrivate(PageId page) { return MakePrivate(entry(page)); }

  // Invalidate per an incoming write notice. Keeps the (stale) data so tests
  // can observe weak-memory staleness, but faults will refetch. A page the
  // node never touched is already invalid and stays entry-free.
  void Invalidate(PageId page);

  // Multi-writer helpers. MakeTwin of a shared frame keeps that frame as
  // the twin (nobody writes it) and copies once, for the data. The twin is
  // written only through PrivateTwin.
  void MakeTwin(PageId page);
  std::vector<uint8_t>& PrivateTwin(PageEntry& e);
  void DropTwin(PageId page) { entry(page).twin.reset(); }

 private:
  void CheckPage(PageId page) const {
    CVM_CHECK_GE(page, 0);
    CVM_CHECK_LT(page, num_pages_);
  }
  PageEntry& MakePrivate(PageEntry& e);

  int num_pages_;
  uint64_t page_size_;
  SparsePageMap<PageEntry> entries_;

  obs::Tracer* tracer_ = nullptr;
  NodeId obs_node_ = 0;
  obs::Counter* twins_counter_ = nullptr;
  obs::Counter* installs_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
};

}  // namespace cvm

#endif  // CVM_MEM_PAGE_TABLE_H_
