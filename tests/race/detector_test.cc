// Unit tests of the race-detection pipeline over hand-built interval
// records: concurrency pruning, page-overlap winnowing (check list), and
// word-level bitmap comparison separating false from true sharing.
#include <gtest/gtest.h>

#include <map>

#include "src/race/detector.h"

namespace cvm {
namespace {

class Fixture {
 public:
  explicit Fixture(int nodes) : nodes_(nodes) {}

  // Adds an interval; vc entries listed as (node, index) pairs seen.
  IntervalRecord& Add(NodeId node, IntervalIndex index,
                      std::vector<std::pair<NodeId, IntervalIndex>> seen,
                      std::vector<PageId> writes, std::vector<PageId> reads) {
    IntervalRecord r;
    r.id = IntervalId{node, index};
    r.vc = VectorClock(nodes_);
    r.vc.Set(node, index);
    for (auto [n, i] : seen) {
      r.vc.Set(n, i);
    }
    r.write_pages = std::move(writes);
    r.read_pages = std::move(reads);
    records_.push_back(r);
    return records_.back();
  }

  void Touch(const IntervalId& id, PageId page, std::vector<uint32_t> read_words,
             std::vector<uint32_t> write_words) {
    PageAccessBitmaps pair{Bitmap(64), Bitmap(64)};
    for (uint32_t w : read_words) {
      pair.read.Set(w);
    }
    for (uint32_t w : write_words) {
      pair.write.Set(w);
    }
    bitmaps_[{id, page}] = std::move(pair);
  }

  BitmapLookup Lookup() const {
    return [this](const IntervalId& id, PageId page) -> const PageAccessBitmaps* {
      auto it = bitmaps_.find({id, page});
      return it == bitmaps_.end() ? nullptr : &it->second;
    };
  }

  const std::vector<IntervalRecord>& records() const { return records_; }

 private:
  int nodes_;
  std::vector<IntervalRecord> records_;
  std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> bitmaps_;
};

class DetectorTest : public ::testing::TestWithParam<OverlapMethod> {};

TEST_P(DetectorTest, OrderedIntervalsAreNeverChecked) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {7}, {});
  fx.Add(1, 0, {{0, 0}}, {7}, {});  // Has seen node 0's interval: ordered.
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(detector.stats().concurrent_pairs, 0u);
  EXPECT_EQ(detector.stats().interval_comparisons, 1u);
}

TEST_P(DetectorTest, ConcurrentWithoutPageOverlapIsPruned) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {1}, {2});
  fx.Add(1, 0, {}, {3}, {4});
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(detector.stats().concurrent_pairs, 1u);
  EXPECT_EQ(detector.stats().overlapping_pairs, 0u);
}

TEST_P(DetectorTest, ReadReadOverlapIsNotARaceCandidate) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {}, {5});
  fx.Add(1, 0, {}, {}, {5});
  RaceDetector detector(16, GetParam());
  EXPECT_TRUE(detector.BuildCheckList(fx.records()).empty());
}

TEST_P(DetectorTest, FalseSharingIsClearedByBitmaps) {
  // Both write page 5 but different words: unsynchronized sharing that the
  // word-level comparison reveals as false sharing (§3.2's example).
  Fixture fx(2);
  fx.Add(0, 0, {}, {5}, {});
  fx.Add(1, 0, {}, {5}, {});
  fx.Touch({0, 0}, 5, {}, {1});
  fx.Touch({1, 0}, 5, {}, {2});
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].pages, std::vector<PageId>{5});
  const auto races = detector.CompareBitmaps(pairs, fx.Lookup(), 0, RaceDetector::BitmapsNeeded(pairs).size());
  EXPECT_TRUE(races.empty());
  EXPECT_GT(detector.stats().bitmap_pairs_compared, 0u);
}

TEST_P(DetectorTest, TrueSharingWriteWrite) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {5}, {});
  fx.Add(1, 0, {}, {5}, {});
  fx.Touch({0, 0}, 5, {}, {3});
  fx.Touch({1, 0}, 5, {}, {3});
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  const auto races = detector.CompareBitmaps(pairs, fx.Lookup(), 7, RaceDetector::BitmapsNeeded(pairs).size());
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].kind, RaceKind::kWriteWrite);
  EXPECT_EQ(races[0].page, 5);
  EXPECT_EQ(races[0].word, 3u);
  EXPECT_EQ(races[0].epoch, 7);
}

TEST_P(DetectorTest, TrueSharingReadWriteIdentifiesWriterFirst) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {5}, {});
  fx.Add(1, 0, {}, {}, {5});
  fx.Touch({0, 0}, 5, {}, {9});
  fx.Touch({1, 0}, 5, {9}, {});
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  const auto races = detector.CompareBitmaps(pairs, fx.Lookup(), 0, RaceDetector::BitmapsNeeded(pairs).size());
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].kind, RaceKind::kReadWrite);
  EXPECT_EQ(races[0].interval_a, (IntervalId{0, 0}));  // The writer.
  EXPECT_EQ(races[0].interval_b, (IntervalId{1, 0}));
}

TEST_P(DetectorTest, ThreeWayConcurrencyComparesAllPairs) {
  Fixture fx(3);
  fx.Add(0, 0, {}, {1}, {});
  fx.Add(1, 0, {}, {1}, {});
  fx.Add(2, 0, {}, {1}, {});
  for (NodeId n = 0; n < 3; ++n) {
    fx.Touch({n, 0}, 1, {}, {static_cast<uint32_t>(n)});  // Distinct words.
  }
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  EXPECT_EQ(pairs.size(), 3u);  // All three pairs overlap.
  EXPECT_EQ(detector.stats().intervals_in_overlap, 3u);
  EXPECT_TRUE(detector.CompareBitmaps(pairs, fx.Lookup(), 0, RaceDetector::BitmapsNeeded(pairs).size()).empty());
}

TEST_P(DetectorTest, BitmapsNeededDeduplicates) {
  Fixture fx(3);
  fx.Add(0, 0, {}, {1}, {});
  fx.Add(1, 0, {}, {1}, {});
  fx.Add(2, 0, {}, {1}, {});
  RaceDetector detector(16, GetParam());
  const auto pairs = detector.BuildCheckList(fx.records());
  const auto needed = RaceDetector::BitmapsNeeded(pairs);
  // Each interval's (id, page 1) appears once despite two pairs each.
  EXPECT_EQ(needed.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Overlap, DetectorTest,
                         ::testing::Values(OverlapMethod::kPageLists,
                                           OverlapMethod::kPageBitmaps),
                         [](const ::testing::TestParamInfo<OverlapMethod>& param_info) {
                           return param_info.param == OverlapMethod::kPageLists ? "PageLists"
                                                                                : "PageBitmaps";
                         });

// The dense-probe scratch of the page-bitmap overlap is built once per page
// count and reused: repeated epochs of the same shape allocate nothing.
TEST(DetectorScratchTest, DetectorOverlapScratchBuiltOncePerPageCount) {
  Fixture fx(2);
  fx.Add(0, 0, {}, {3, 7}, {});
  fx.Add(1, 0, {}, {4, 7}, {});
  RaceDetector detector(64, OverlapMethod::kPageBitmaps);
  for (int run = 0; run < 5; ++run) {
    const auto pairs = detector.BuildCheckList(fx.records());
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].pages, (std::vector<PageId>{7}));
  }
  EXPECT_EQ(detector.stats().overlap_scratch_builds, 1u);
}

}  // namespace
}  // namespace cvm
