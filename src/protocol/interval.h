// Interval structures: the unit of LRC consistency metadata (§3.1). Each
// interval carries a version vector, the pages written (write notices) and —
// the paper's addition — the pages read (read notices). Word-granularity
// access bitmaps stay on the creating node until a race check requests them.
#ifndef CVM_PROTOCOL_INTERVAL_H_
#define CVM_PROTOCOL_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/vc/vector_clock.h"

namespace cvm {

// Wire-transferable summary of one interval. This is what rides on lock
// grants and barrier messages.
struct IntervalRecord {
  IntervalId id;
  VectorClock vc;                  // Version vector at interval creation.
  EpochId epoch = 0;               // Barrier epoch the interval belongs to.
  std::vector<PageId> write_pages; // Write notices.
  std::vector<PageId> read_pages;  // Read notices (this paper's addition).

  // Byte-accurate wire size, split so the harness can report the marginal
  // cost of read notices (Table 3 "Msg Ohead").
  size_t BaseByteSize() const {
    return sizeof(IntervalId) + sizeof(EpochId) + vc.ByteSize() +
           write_pages.size() * sizeof(PageId) + sizeof(uint32_t) * 2;
  }
  size_t ReadNoticeByteSize() const { return read_pages.size() * sizeof(PageId); }
  size_t ByteSize() const { return BaseByteSize() + ReadNoticeByteSize(); }

  std::string ToString() const;
};

// Word-granularity read/write bitmaps for the pages one interval touched.
struct PageAccessBitmaps {
  Bitmap read;
  Bitmap write;
};

// Per-node store of access bitmaps for the node's *own* intervals. Entries
// are dropped only once the epoch's race check has consumed them (§6.4:
// trace information is discarded only after it has been checked).
class BitmapStore {
 public:
  explicit BitmapStore(uint32_t words_per_page) : words_per_page_(words_per_page) {}

  // The bitmap pair for (interval, page), created (both bitmaps empty) on
  // the interval's first access to the page. Callers set the accessed
  // words' bits. The reference lasts until the next Record, but each
  // bitmap's word storage stays put until DiscardThrough/Clear: the node's
  // page cache keeps pointers to the words across repeat accesses.
  PageAccessBitmaps& Record(IntervalIndex interval, PageId page);

  // Bitmaps for (interval, page); null if the interval never touched it.
  const PageAccessBitmaps* Find(IntervalIndex interval, PageId page) const;

  // Drops bitmaps for all intervals with index <= up_to (the epoch's race
  // check is complete).
  void DiscardThrough(IntervalIndex up_to);

  // Re-inserts one (interval, page) pair verbatim — epoch-checkpoint
  // rollback restoring the bitmaps retained at the last consistent cut.
  void RestorePair(IntervalIndex interval, PageId page, const PageAccessBitmaps& pair);

  // Drops every retained pair (rollback clears the torn epoch's bitmaps
  // before restoring the checkpointed ones). Does not reset total_pairs_.
  void Clear();

  // Number of (interval, page) bitmap pairs currently retained.
  size_t RetainedPairs() const;

  // Total bitmap pairs ever recorded (denominator of Table 3 "Bitmaps Used").
  uint64_t TotalPairsRecorded() const { return total_pairs_; }

  // Walks every retained (interval, page) bitmap pair (post-mortem dump).
  template <typename Fn>
  void ForEachPair(NodeId node, const Fn& fn) const {
    for (const auto& [interval, pages] : by_interval_) {
      for (const auto& [page, pair] : pages) {
        fn(IntervalId{node, interval}, page, pair);
      }
    }
  }

 private:
  // One interval's pairs, ascending by page, in a flat vector: a lookup is a
  // binary search over contiguous keys. An insert moves later pairs, and a
  // move keeps each bitmap's word storage.
  using PageMap = std::vector<std::pair<PageId, PageAccessBitmaps>>;
  using IntervalMap = std::map<IntervalIndex, PageMap>;
  static_assert(std::is_nothrow_move_constructible_v<PageAccessBitmaps>);

  template <typename Pages>  // PageMap or const PageMap.
  static auto LowerBound(Pages& pages, PageId page) {
    return std::lower_bound(pages.begin(), pages.end(), page,
                            [](const auto& pair, PageId key) { return pair.first < key; });
  }

  uint32_t words_per_page_;
  IntervalMap by_interval_;
  uint64_t total_pairs_ = 0;
};

// A node's knowledge of intervals across the whole system: its own and those
// received on synchronization messages. Supports the "intervals the
// requester has not seen" query that LRC piggybacks on lock grants, and
// barrier-time garbage collection.
class IntervalLog {
 public:
  explicit IntervalLog(int num_nodes) : by_node_(num_nodes) {}

  // Inserts (or ignores, if already known) a record.
  void Insert(const IntervalRecord& record);

  bool Contains(const IntervalId& id) const;
  const IntervalRecord* Find(const IntervalId& id) const;

  // All records the given clock has not seen: record (p, i) is unseen iff
  // vc[p] < i. Returned in a causally-safe order (per node, ascending index).
  std::vector<IntervalRecord> UnseenBy(const VectorClock& vc) const;

  // All records currently in the log.
  std::vector<IntervalRecord> All() const;

  // The records of barrier epoch `epoch`, in All() order.
  std::vector<IntervalRecord> OfEpoch(EpochId epoch) const;

  // Drops every record dominated by the clock: record (p, i) with
  // i <= vc[p]. Used after barrier release, when every node has seen the
  // epoch and its races have been checked (§6.3 consolidation).
  void DiscardDominatedBy(const VectorClock& vc);

  // Drops every record (epoch-checkpoint rollback; re-Insert the snapshot).
  void Clear();

  size_t size() const;

 private:
  using RecordMap = std::map<IntervalIndex, IntervalRecord>;

  // by_node_[p] maps interval index -> record, sorted by index.
  std::vector<RecordMap> by_node_;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_INTERVAL_H_
