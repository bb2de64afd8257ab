#include "src/race/detector.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/bitmap.h"
#include "src/common/check.h"

namespace cvm {

void DetectorStats::Accumulate(const DetectorStats& other) {
  intervals_total += other.intervals_total;
  interval_comparisons += other.interval_comparisons;
  concurrent_pairs += other.concurrent_pairs;
  overlapping_pairs += other.overlapping_pairs;
  intervals_in_overlap += other.intervals_in_overlap;
  checklist_entries += other.checklist_entries;
  page_overlap_probes += other.page_overlap_probes;
  bitmap_pairs_compared += other.bitmap_pairs_compared;
  overlap_scratch_builds += other.overlap_scratch_builds;
}

namespace {

// Pages written by one interval and accessed (either way) by the other.
void CollectConflictPages(const std::vector<PageId>& writes, const std::vector<PageId>& reads,
                          const std::vector<PageId>& other_writes,
                          const std::vector<PageId>& other_reads, std::vector<PageId>* out,
                          uint64_t* probes) {
  for (PageId w : writes) {
    *probes += other_writes.size() + other_reads.size();
    const bool hit = std::find(other_writes.begin(), other_writes.end(), w) != other_writes.end() ||
                     std::find(other_reads.begin(), other_reads.end(), w) != other_reads.end();
    if (hit) {
      out->push_back(w);
    }
  }
  // Reads of this interval against writes of the other.
  for (PageId r : reads) {
    *probes += other_writes.size();
    if (std::find(other_writes.begin(), other_writes.end(), r) != other_writes.end()) {
      out->push_back(r);
    }
  }
}

// True (and fills scratch->overlap) if the two intervals share any page with
// at least one writer. Free of detector state so combine-tree nodes can probe
// concurrently, each into its own DetectorStats and OverlapScratch.
bool PagesOverlap(OverlapMethod method, int num_pages, const IntervalRecord& a,
                  const IntervalRecord& b, OverlapScratch* scratch, DetectorStats* stats) {
  std::vector<PageId>* overlap = &scratch->overlap;
  overlap->clear();
  if (method == OverlapMethod::kPageLists) {
    CollectConflictPages(a.write_pages, a.read_pages, b.write_pages, b.read_pages, overlap,
                         &stats->page_overlap_probes);
  } else {
    // Dense page bitmaps: O(pages) regardless of list length (§6.2).
    // conflict = (a.writes & b.access) | (b.writes & a.access). The bitmaps
    // live in the per-shard scratch, zero-filled (not reallocated) per pair.
    scratch->Prepare(num_pages, stats);
    for (PageId p : a.write_pages) {
      scratch->a_writes.Set(static_cast<uint32_t>(p));
      scratch->a_access.Set(static_cast<uint32_t>(p));
    }
    for (PageId p : a.read_pages) {
      scratch->a_access.Set(static_cast<uint32_t>(p));
    }
    for (PageId p : b.write_pages) {
      scratch->b_writes.Set(static_cast<uint32_t>(p));
      scratch->b_access.Set(static_cast<uint32_t>(p));
    }
    for (PageId p : b.read_pages) {
      scratch->b_access.Set(static_cast<uint32_t>(p));
    }
    stats->page_overlap_probes += static_cast<uint64_t>(num_pages);
    scratch->conflict = scratch->a_writes;  // Same size: reuses capacity.
    scratch->conflict.IntersectWith(scratch->b_access);
    scratch->b_writes.IntersectWith(scratch->a_access);
    scratch->conflict.UnionWith(scratch->b_writes);
    for (uint32_t p : scratch->conflict.SetBits()) {
      overlap->push_back(static_cast<PageId>(p));
    }
  }
  // Deduplicate (a page can enter via both W/W and R/W probes).
  std::sort(overlap->begin(), overlap->end());
  overlap->erase(std::unique(overlap->begin(), overlap->end()), overlap->end());
  return !overlap->empty();
}

}  // namespace

const std::vector<CheckPair>& RaceDetector::BuildCheckList(
    const std::vector<IntervalRecord>& epoch_intervals) {
  return BuildCheckListSharded(epoch_intervals, 1, nullptr);
}

const std::vector<CheckPair>& RaceDetector::BuildCheckListSharded(
    const std::vector<IntervalRecord>& epoch_intervals, int num_shards,
    std::vector<DetectorStats>* per_shard) {
  num_shards = std::max(1, num_shards);
  // More shards than rows would leave shards idle; cap to the row count.
  if (static_cast<size_t>(num_shards) > epoch_intervals.size()) {
    num_shards = std::max<int>(1, static_cast<int>(epoch_intervals.size()));
  }
  std::vector<DetectorStats> shard_stats(static_cast<size_t>(num_shards));
  if (shard_scratch_.size() < static_cast<size_t>(num_shards)) {
    shard_scratch_.resize(static_cast<size_t>(num_shards));
  }

  // Row i of the pair triangle (interval i against every j > i) belongs to
  // shard i % num_shards. Rows run in order on this thread, so the list is
  // the serial scan's; it lands in the pooled checklist_ arena, overwriting
  // retired slots (and their page vectors) in place.
  size_t used = 0;
  std::set<IntervalId> in_overlap;
  for (size_t i = 0; i < epoch_intervals.size(); ++i) {
    const size_t shard = i % static_cast<size_t>(num_shards);
    OverlapScratch* scratch = &shard_scratch_[shard];
    DetectorStats* stats = &shard_stats[shard];
    const IntervalRecord& a = epoch_intervals[i];
    for (size_t j = i + 1; j < epoch_intervals.size(); ++j) {
      const IntervalRecord& b = epoch_intervals[j];
      if (a.id.node == b.id.node) {
        continue;  // Program order; never concurrent.
      }
      ++stats->interval_comparisons;
      if (!IntervalsConcurrent(a.id, a.vc, b.id, b.vc)) {
        continue;
      }
      ++stats->concurrent_pairs;
      if (!PagesOverlap(method_, num_pages_, a, b, scratch, stats)) {
        continue;
      }
      ++stats->overlapping_pairs;
      in_overlap.insert(a.id);
      in_overlap.insert(b.id);
      // Copy (not move) the overlap so the scratch keeps its capacity for
      // the next pair; the CheckPair needs its own storage regardless.
      EmitCheckPair(a, b, scratch->overlap, &checklist_, &used);
    }
  }
  if (checklist_.size() > used) {
    checklist_.resize(used);  // Drop only the tail slots this epoch left unused.
  }

  stats_.intervals_total += epoch_intervals.size();
  stats_.intervals_in_overlap += in_overlap.size();
  for (const DetectorStats& s : shard_stats) {
    stats_.interval_comparisons += s.interval_comparisons;
    stats_.concurrent_pairs += s.concurrent_pairs;
    stats_.overlapping_pairs += s.overlapping_pairs;
    stats_.page_overlap_probes += s.page_overlap_probes;
    stats_.overlap_scratch_builds += s.overlap_scratch_builds;
  }
  if (per_shard != nullptr) {
    *per_shard = std::move(shard_stats);
  }
  return checklist_;
}

void RaceDetector::BuildClaimedPairs(const std::vector<IntervalRecord>& intervals,
                                     OverlapMethod method, int num_pages,
                                     const std::function<bool(NodeId, NodeId)>& claim,
                                     OverlapScratch* scratch, std::vector<CheckPair>* out,
                                     DetectorStats* stats, uint64_t* index_entries) {
  // Page index: which interval indices write / access each page. Candidate
  // pairs fall out of the per-page writer x accessor cross products, so the
  // pair population is linear in actual sharing instead of quadratic in the
  // interval count.
  std::unordered_map<PageId, std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> by_page;
  uint64_t entries = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    for (PageId p : intervals[i].write_pages) {
      auto& lists = by_page[p];
      lists.first.push_back(static_cast<uint32_t>(i));
      lists.second.push_back(static_cast<uint32_t>(i));
      ++entries;
    }
    for (PageId p : intervals[i].read_pages) {
      by_page[p].second.push_back(static_cast<uint32_t>(i));
      ++entries;
    }
  }
  if (index_entries != nullptr) {
    *index_entries += entries;
  }

  std::vector<std::pair<uint32_t, uint32_t>> candidates;
  for (const auto& [page, lists] : by_page) {
    for (uint32_t w : lists.first) {
      for (uint32_t x : lists.second) {
        if (w == x) {
          continue;
        }
        candidates.emplace_back(std::min(w, x), std::max(w, x));
      }
    }
  }
  // (i, j) index order over the IntervalId-sorted input == the serial
  // triangle scan's (a.id, b.id) emission order.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  for (const auto& [ci, cj] : candidates) {
    const IntervalRecord& a = intervals[ci];
    const IntervalRecord& b = intervals[cj];
    if (a.id.node == b.id.node) {
      continue;  // Program order; never concurrent.
    }
    if (!claim(a.id.node, b.id.node)) {
      continue;  // Another tree node owns this pair.
    }
    ++stats->interval_comparisons;
    if (!IntervalsConcurrent(a.id, a.vc, b.id, b.vc)) {
      continue;
    }
    ++stats->concurrent_pairs;
    if (!PagesOverlap(method, num_pages, a, b, scratch, stats)) {
      continue;
    }
    ++stats->overlapping_pairs;
    out->push_back(CheckPair{a, b, scratch->overlap});
  }
}

std::vector<std::pair<IntervalId, PageId>> RaceDetector::BitmapsNeeded(
    const std::vector<CheckPair>& pairs) {
  std::set<std::pair<IntervalId, PageId>> needed;
  for (const CheckPair& pair : pairs) {
    for (PageId page : pair.pages) {
      // Only request bitmaps the interval actually has for this page.
      if (pair.a.WritesPage(page) || pair.a.ReadsPage(page)) {
        needed.emplace(pair.a.id, page);
      }
      if (pair.b.WritesPage(page) || pair.b.ReadsPage(page)) {
        needed.emplace(pair.b.id, page);
      }
    }
  }
  return std::vector<std::pair<IntervalId, PageId>>(needed.begin(), needed.end());
}

std::vector<RaceReport> RaceDetector::CompareOnePair(const IntervalId& a, const IntervalId& b,
                                                     const std::vector<PageId>& pages,
                                                     const BitmapLookup& lookup, EpochId epoch,
                                                     uint64_t* bitmap_pairs_compared) {
  std::vector<RaceReport> reports;
  auto report_hits = [&](RaceKind kind, const Bitmap& x, const Bitmap& y, PageId page,
                         const IntervalId& ia, const IntervalId& ib) {
    ++*bitmap_pairs_compared;
    for (uint32_t word : x.IntersectionBits(y)) {
      RaceReport r;
      r.kind = kind;
      r.page = page;
      r.word = word;
      r.interval_a = ia;
      r.interval_b = ib;
      r.epoch = epoch;
      reports.push_back(std::move(r));
    }
  };

  for (PageId page : pages) {
    const PageAccessBitmaps* bm_a = lookup(a, page);
    const PageAccessBitmaps* bm_b = lookup(b, page);
    if (bm_a == nullptr || bm_b == nullptr) {
      continue;  // The interval never truly touched the page (stale notice).
    }
    // Write-write overlap.
    report_hits(RaceKind::kWriteWrite, bm_a->write, bm_b->write, page, a, b);
    // Read-write overlaps, writer first.
    report_hits(RaceKind::kReadWrite, bm_a->write, bm_b->read, page, a, b);
    report_hits(RaceKind::kReadWrite, bm_b->write, bm_a->read, page, b, a);
  }
  return reports;
}

std::vector<RaceReport> RaceDetector::CompareBitmaps(const std::vector<CheckPair>& pairs,
                                                     const BitmapLookup& lookup, EpochId epoch,
                                                     size_t checklist_entries) {
  std::vector<RaceReport> reports;
  stats_.checklist_entries += checklist_entries;

  for (const CheckPair& pair : pairs) {
    std::vector<RaceReport> pair_reports = CompareOnePair(
        pair.a.id, pair.b.id, pair.pages, lookup, epoch, &stats_.bitmap_pairs_compared);
    for (RaceReport& report : pair_reports) {
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

}  // namespace cvm
