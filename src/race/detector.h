// The on-the-fly race-detection algorithm of §4, steps 2–5, as pure logic:
// given every interval record of a barrier epoch, find concurrent interval
// pairs (vector-timestamp test), winnow to pairs with overlapping page
// accesses (the check list), then compare word-granularity bitmaps to
// separate false sharing from true data races.
//
// The check-list build (the O(n²) pair loop) can be accounted as shards:
// rows of the pair triangle are dealt round-robin to shards, each with its
// own counters, so a caller can charge the parallel critical path. The rows
// still run in order on the calling thread, so the check list (same pairs,
// same order) and every report are independent of the shard count.
#ifndef CVM_RACE_DETECTOR_H_
#define CVM_RACE_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "src/common/bitmap.h"
#include "src/protocol/interval.h"
#include "src/race/race_report.h"
#include "src/vc/vector_clock.h"

namespace cvm {

// How page-set overlap between two intervals is probed (§6.2): pairwise scan
// of the (short) page lists, or via dense page bitmaps which is linear in
// the number of pages in the system.
enum class OverlapMethod : uint8_t {
  kPageLists,
  kPageBitmaps,
};

// Counters reported by the evaluation harness (Table 3, Figure 3).
struct DetectorStats {
  uint64_t intervals_total = 0;
  uint64_t interval_comparisons = 0;   // Version-vector concurrency tests run.
  uint64_t concurrent_pairs = 0;
  uint64_t overlapping_pairs = 0;      // Pairs placed on the check list.
  uint64_t intervals_in_overlap = 0;   // Intervals in >= 1 overlapping pair.
  uint64_t checklist_entries = 0;      // (interval, page) bitmap requests.
  uint64_t page_overlap_probes = 0;
  uint64_t bitmap_pairs_compared = 0;
  uint64_t overlap_scratch_builds = 0;  // Scratch bitmap (re)allocations.

  void Accumulate(const DetectorStats& other);
};

// Reusable working state for the dense-bitmap overlap probe. One scratch per
// shard lives inside the RaceDetector across epochs, so a steady-state epoch
// probes every pair without allocating: Prepare() only builds the bitmaps
// when the page count changes (stats->overlap_scratch_builds counts those),
// otherwise it zero-fills in place.
struct OverlapScratch {
  Bitmap a_writes;
  Bitmap a_access;
  Bitmap b_writes;
  Bitmap b_access;
  Bitmap conflict;
  std::vector<PageId> overlap;

  void Prepare(int num_pages, DetectorStats* stats) {
    if (a_writes.size() != static_cast<uint32_t>(num_pages)) {
      ++stats->overlap_scratch_builds;
      a_writes = Bitmap(static_cast<uint32_t>(num_pages));
      a_access = Bitmap(static_cast<uint32_t>(num_pages));
      b_writes = Bitmap(static_cast<uint32_t>(num_pages));
      b_access = Bitmap(static_cast<uint32_t>(num_pages));
      conflict = Bitmap(static_cast<uint32_t>(num_pages));
    } else {
      a_writes.Reset();
      a_access.Reset();
      b_writes.Reset();
      b_access.Reset();
      conflict.Reset();
    }
  }
};

// One concurrent interval pair that exhibits unsynchronized sharing on at
// least one page; `pages` lists the overlapping pages (true or false sharing
// not yet known — that is what the bitmap round decides).
struct CheckPair {
  IntervalRecord a;
  IntervalRecord b;
  std::vector<PageId> pages;
};

// Resolves the word-granularity bitmaps for one (interval, page); returns
// nullptr if that interval did not touch the page (never happens for
// correctly-built check lists). The DSM binds this to the bitmap-retrieval
// message round.
using BitmapLookup = std::function<const PageAccessBitmaps*(const IntervalId&, PageId)>;

class RaceDetector {
 public:
  explicit RaceDetector(int num_pages, OverlapMethod method = OverlapMethod::kPageLists)
      : num_pages_(num_pages), method_(method) {}

  // Steps 2 + 3: enumerate concurrent pairs among the epoch's intervals and
  // keep those whose page accesses overlap in a W/W or R/W fashion.
  // Intervals on the same node are never compared (program order), and the
  // vector-timestamp test prunes synchronized pairs in constant time.
  //
  // The returned reference points at detector-owned scratch (the check list
  // and its per-row staging vectors persist across epochs, so steady-state
  // builds reuse every element's heap storage instead of reallocating). It
  // is valid until the next Build* call; callers that keep pairs across
  // epochs (e.g. the batched master) must copy.
  const std::vector<CheckPair>& BuildCheckList(
      const std::vector<IntervalRecord>& epoch_intervals);

  // Same result, same order, with the pair loop's work split over
  // `num_shards` modeled shards (row i of the triangle goes to shard
  // i % num_shards, which keeps the triangular work balanced; capped at the
  // row count). When `per_shard` is non-null it receives one DetectorStats
  // per shard, so the caller can charge simulated time for the *largest*
  // shard (the parallel critical path) rather than the sum. Every shard runs
  // on the calling thread; num_shards <= 1 is the plain serial scan.
  const std::vector<CheckPair>& BuildCheckListSharded(
      const std::vector<IntervalRecord>& epoch_intervals, int num_shards,
      std::vector<DetectorStats>* per_shard = nullptr);

  // Check-list pairs among `intervals` that `claim` accepts, built via a
  // page -> accessing-intervals index instead of the all-pairs scan: only
  // pairs that share a page with at least one writer are candidates, which
  // is exactly the population PagesOverlap can accept. `intervals` must be
  // IntervalId-sorted (IntervalLog::All() order); the output is sorted by
  // (a.id, b.id) with a.id < b.id — the serial scan's emission order — so
  // fragments built at different tree nodes under disjoint claims merge
  // into a byte-identical serial check list. Static and free of detector
  // state: interior combine-tree nodes run it concurrently, each with its
  // own scratch and stats. `index_entries` (optional) receives the number
  // of page-index insertions, for per-entry cost charging.
  static void BuildClaimedPairs(const std::vector<IntervalRecord>& intervals,
                                OverlapMethod method, int num_pages,
                                const std::function<bool(NodeId, NodeId)>& claim,
                                OverlapScratch* scratch, std::vector<CheckPair>* out,
                                DetectorStats* stats, uint64_t* index_entries = nullptr);

  // Distinct (interval, page) entries whose bitmaps step 5 needs.
  static std::vector<std::pair<IntervalId, PageId>> BitmapsNeeded(
      const std::vector<CheckPair>& pairs);

  // Step 5: word-level comparison. Emits one report per racing word per
  // interval pair per kind. interval_a is the writer in read-write reports.
  // `checklist_entries` is the number of distinct (interval, page) bitmap
  // requests behind `pairs` — i.e. BitmapsNeeded(pairs).size(), which every
  // caller has already computed to run the retrieval round; it is threaded
  // through instead of being recomputed here.
  std::vector<RaceReport> CompareBitmaps(const std::vector<CheckPair>& pairs,
                                         const BitmapLookup& lookup, EpochId epoch,
                                         size_t checklist_entries);

  // The word-level comparison of ONE check pair (all its pages), shared by
  // CompareBitmaps and by constituent nodes running the distributed compare:
  // both sides must emit reports in exactly this order (per page: W/W words
  // ascending, then R/W with a writing, then R/W with b writing) for the
  // merged distributed report stream to be byte-identical to the serial one.
  // `bitmap_pairs_compared` is incremented per bitmap pair examined.
  static std::vector<RaceReport> CompareOnePair(const IntervalId& a, const IntervalId& b,
                                                const std::vector<PageId>& pages,
                                                const BitmapLookup& lookup, EpochId epoch,
                                                uint64_t* bitmap_pairs_compared);

  // Folds compare work done away from this detector (the distributed
  // pipeline's constituent-node compares) into the run totals.
  void AccumulateCompare(uint64_t checklist_entries, uint64_t bitmap_pairs_compared) {
    stats_.checklist_entries += checklist_entries;
    stats_.bitmap_pairs_compared += bitmap_pairs_compared;
  }

  // Folds build-side counters produced outside this detector into the run
  // totals. The combine tree's root folds in its own claimed build plus the
  // epoch's interval counts; interior nodes' builds run concurrently on
  // other threads and are deliberately not folded (the detector has no
  // lock), so tree-mode comparison counters reflect the root's share only.
  void AccumulateBuild(const DetectorStats& build_stats) { stats_.Accumulate(build_stats); }

  const DetectorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DetectorStats{}; }

 private:
  int num_pages_;
  OverlapMethod method_;
  DetectorStats stats_;
  // One dense-probe scratch per shard, kept across epochs so steady-state
  // check-list builds allocate nothing. Grown (never shrunk) on demand;
  // shard i's rows probe through shard_scratch_[i].
  std::vector<OverlapScratch> shard_scratch_;
  // Persistent check-list arena that Build* returns by reference. It grows
  // but never shrinks its element storage, so a new epoch overwrites slots
  // in place (IntervalRecord / page-vector assignment reuses heap capacity)
  // instead of destroying and reallocating them.
  std::vector<CheckPair> checklist_;
};

// Assigns a check pair into a pooled slot: overwrites `row`[*used] in place
// when a retired slot exists (element assignment reuses the slot's heap
// storage), appends otherwise. Used by the check-list build so it benefits
// from the persistent arena.
inline void EmitCheckPair(const IntervalRecord& a, const IntervalRecord& b,
                          const std::vector<PageId>& pages, std::vector<CheckPair>* row,
                          size_t* used) {
  if (*used < row->size()) {
    CheckPair& slot = (*row)[*used];
    slot.a = a;
    slot.b = b;
    slot.pages = pages;
  } else {
    row->push_back(CheckPair{a, b, pages});
  }
  ++*used;
}

}  // namespace cvm

#endif  // CVM_RACE_DETECTOR_H_
