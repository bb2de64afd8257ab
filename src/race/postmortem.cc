#include "src/race/postmortem.h"

#include <algorithm>

namespace cvm {

void PostMortemTrace::AddRecord(const IntervalRecord& record) {
  std::lock_guard<std::mutex> guard(mu_);
  records_.push_back(record);
}

void PostMortemTrace::AddBitmaps(const IntervalId& interval, PageId page,
                                 const PageAccessBitmaps& bitmaps) {
  std::lock_guard<std::mutex> guard(mu_);
  bitmaps_.emplace(std::make_pair(interval, page), bitmaps);
}

size_t PostMortemTrace::NumRecords() const {
  std::lock_guard<std::mutex> guard(mu_);
  return records_.size();
}

size_t PostMortemTrace::NumBitmapPairs() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bitmaps_.size();
}

size_t PostMortemTrace::TraceBytes() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t bytes = 0;
  for (const IntervalRecord& record : records_) {
    bytes += record.ByteSize();
  }
  for (const auto& [key, pair] : bitmaps_) {
    bytes += sizeof(key) + pair.read.ByteSize() + pair.write.ByteSize();
  }
  return bytes;
}

PostMortemTrace::AnalysisResult PostMortemTrace::Analyze(int num_pages,
                                                         OverlapMethod method) const {
  std::lock_guard<std::mutex> guard(mu_);
  AnalysisResult result;
  RaceDetector detector(num_pages, method);

  std::map<EpochId, std::vector<IntervalRecord>> by_epoch;
  for (const IntervalRecord& record : records_) {
    by_epoch[record.epoch].push_back(record);
  }

  BitmapLookup lookup = [this](const IntervalId& interval, PageId page) {
    auto it = bitmaps_.find(std::make_pair(interval, page));
    return it == bitmaps_.end() ? nullptr : &it->second;
  };

  for (const auto& [epoch, records] : by_epoch) {
    const std::vector<CheckPair> pairs = detector.BuildCheckList(records);
    const size_t checklist_entries = RaceDetector::BitmapsNeeded(pairs).size();
    std::vector<RaceReport> races = detector.CompareBitmaps(pairs, lookup, epoch, checklist_entries);
    for (RaceReport& race : races) {
      // Deduplicate, matching the online system's reporting.
      const bool duplicate = std::any_of(result.races.begin(), result.races.end(),
                                         [&](const RaceReport& r) { return r.SameRace(race); });
      if (!duplicate) {
        result.races.push_back(std::move(race));
      }
    }
  }
  result.stats = detector.stats();
  return result;
}

}  // namespace cvm
