#include "src/protocol/interval.h"

#include <sstream>

#include "src/common/check.h"

namespace cvm {

std::string IntervalRecord::ToString() const {
  std::ostringstream out;
  out << id.ToString() << " vc=" << vc.ToString() << " epoch=" << epoch << " w={";
  for (size_t i = 0; i < write_pages.size(); ++i) {
    out << (i ? "," : "") << write_pages[i];
  }
  out << "} r={";
  for (size_t i = 0; i < read_pages.size(); ++i) {
    out << (i ? "," : "") << read_pages[i];
  }
  out << "}";
  return out.str();
}

PageAccessBitmaps& BitmapStore::Record(IntervalIndex interval, PageId page) {
  PageMap& pages = by_interval_[interval];
  auto it = LowerBound(pages, page);
  if (it == pages.end() || it->first != page) {
    it = pages.emplace(it, page,
                       PageAccessBitmaps{Bitmap(words_per_page_), Bitmap(words_per_page_)});
    ++total_pairs_;
  }
  return it->second;
}

const PageAccessBitmaps* BitmapStore::Find(IntervalIndex interval, PageId page) const {
  auto it = by_interval_.find(interval);
  if (it == by_interval_.end()) {
    return nullptr;
  }
  auto pit = LowerBound(it->second, page);
  return pit == it->second.end() || pit->first != page ? nullptr : &pit->second;
}

void BitmapStore::DiscardThrough(IntervalIndex up_to) {
  by_interval_.erase(by_interval_.begin(), by_interval_.upper_bound(up_to));
}

void BitmapStore::RestorePair(IntervalIndex interval, PageId page,
                              const PageAccessBitmaps& pair) {
  const uint64_t total = total_pairs_;
  Record(interval, page) = pair;
  total_pairs_ = total;  // A restore is not a new recording.
}

void BitmapStore::Clear() {
  by_interval_.clear();
}

size_t BitmapStore::RetainedPairs() const {
  size_t n = 0;
  for (const auto& [interval, pages] : by_interval_) {
    n += pages.size();
  }
  return n;
}

void IntervalLog::Insert(const IntervalRecord& record) {
  CVM_CHECK_GE(record.id.node, 0);
  CVM_CHECK_LT(record.id.node, static_cast<NodeId>(by_node_.size()));
  by_node_[record.id.node].try_emplace(record.id.index, record);  // Ignores a duplicate.
}

bool IntervalLog::Contains(const IntervalId& id) const { return Find(id) != nullptr; }

const IntervalRecord* IntervalLog::Find(const IntervalId& id) const {
  if (id.node < 0 || id.node >= static_cast<NodeId>(by_node_.size())) {
    return nullptr;
  }
  auto it = by_node_[id.node].find(id.index);
  return it == by_node_[id.node].end() ? nullptr : &it->second;
}

std::vector<IntervalRecord> IntervalLog::UnseenBy(const VectorClock& vc) const {
  std::vector<IntervalRecord> out;
  for (size_t p = 0; p < by_node_.size(); ++p) {
    const IntervalIndex seen = vc.At(static_cast<NodeId>(p));
    for (auto it = by_node_[p].upper_bound(seen); it != by_node_[p].end(); ++it) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::vector<IntervalRecord> IntervalLog::All() const {
  std::vector<IntervalRecord> out;
  for (const auto& node_map : by_node_) {
    for (const auto& [index, record] : node_map) {
      out.push_back(record);
    }
  }
  return out;
}

std::vector<IntervalRecord> IntervalLog::OfEpoch(EpochId epoch) const {
  std::vector<IntervalRecord> out;
  for (const auto& node_map : by_node_) {
    for (const auto& [index, record] : node_map) {
      if (record.epoch == epoch) {
        out.push_back(record);
      }
    }
  }
  return out;
}

void IntervalLog::DiscardDominatedBy(const VectorClock& vc) {
  for (size_t p = 0; p < by_node_.size(); ++p) {
    const IntervalIndex limit = vc.At(static_cast<NodeId>(p));
    auto& node_map = by_node_[p];
    node_map.erase(node_map.begin(), node_map.upper_bound(limit));
  }
}

void IntervalLog::Clear() {
  for (auto& node_map : by_node_) {
    node_map.clear();
  }
}

size_t IntervalLog::size() const {
  size_t n = 0;
  for (const auto& node_map : by_node_) {
    n += node_map.size();
  }
  return n;
}

}  // namespace cvm
