// Post-mortem race detection baseline (§7, Adve et al.): instead of checking
// races online at barriers, the run only *logs* — every interval record and
// every access bitmap is appended to a trace — and an offline pass replays
// the same steps 2–5 afterwards. The comparison against the paper's online
// scheme is storage (the trace grows with the run; the online system
// discards data as soon as each epoch is checked) and when the analysis work
// happens, not what is found: both report identical races.
#ifndef CVM_RACE_POSTMORTEM_H_
#define CVM_RACE_POSTMORTEM_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/protocol/interval.h"
#include "src/race/detector.h"
#include "src/race/race_report.h"

namespace cvm {

class PostMortemTrace {
 public:
  // Called by nodes as intervals complete / at shutdown. Thread-safe.
  void AddRecord(const IntervalRecord& record);
  void AddBitmaps(const IntervalId& interval, PageId page, const PageAccessBitmaps& bitmaps);

  size_t NumRecords() const;
  size_t NumBitmapPairs() const;

  // Total bytes a trace file would occupy.
  size_t TraceBytes() const;

  // Visitors for trace serialization (src/race/trace_io.h).
  template <typename Fn>
  void ForEachRecord(const Fn& fn) const {
    std::lock_guard<std::mutex> guard(mu_);
    for (const IntervalRecord& record : records_) {
      fn(record);
    }
  }
  template <typename Fn>
  void ForEachBitmapPair(const Fn& fn) const {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [key, pair] : bitmaps_) {
      fn(key.first, key.second, pair);
    }
  }

  // Offline analysis: per barrier epoch, the same concurrent-interval /
  // page-overlap / bitmap-comparison pipeline the online system runs.
  struct AnalysisResult {
    std::vector<RaceReport> races;
    DetectorStats stats;
  };
  AnalysisResult Analyze(int num_pages, OverlapMethod method = OverlapMethod::kPageLists) const;

 private:
  mutable std::mutex mu_;
  std::vector<IntervalRecord> records_;
  std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> bitmaps_;
};

}  // namespace cvm

#endif  // CVM_RACE_POSTMORTEM_H_
