// Equivalence properties of the detection pipeline's check-list machinery:
// the shard-accounted check-list build must be byte-identical to the
// serial scan (same pairs, same order) for any shard count, and the two
// page-overlap probes (§6.2: page lists vs dense page bitmaps) must agree
// on randomized epochs.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "src/race/detector.h"

namespace cvm {
namespace {

constexpr int kNumPages = 64;

// A randomized barrier epoch: `nodes` intervals with random page accesses
// and random happens-before edges (some intervals have "seen" others).
std::vector<IntervalRecord> RandomEpoch(std::mt19937& rng, int nodes) {
  std::vector<IntervalRecord> records;
  for (NodeId node = 0; node < nodes; ++node) {
    IntervalRecord r;
    const IntervalIndex index = 1 + rng() % 3;
    r.id = IntervalId{node, index};
    r.vc = VectorClock(nodes);
    r.vc.Set(node, index);
    // Random hb edges: each prior node's interval is "seen" with p = 1/3.
    for (NodeId seen = 0; seen < node; ++seen) {
      if (rng() % 3 == 0) {
        r.vc.Set(seen, records[seen].id.index);
      }
    }
    // Unique sorted page lists, matching what interval tracking produces.
    std::set<PageId> writes;
    for (int i = 0, n = rng() % 4; i < n; ++i) {
      writes.insert(rng() % kNumPages);
    }
    std::set<PageId> reads;
    for (int i = 0, n = rng() % 4; i < n; ++i) {
      reads.insert(rng() % kNumPages);
    }
    r.write_pages.assign(writes.begin(), writes.end());
    r.read_pages.assign(reads.begin(), reads.end());
    records.push_back(std::move(r));
  }
  return records;
}

bool SamePair(const CheckPair& x, const CheckPair& y) {
  return x.a.id == y.a.id && x.b.id == y.b.id && x.pages == y.pages;
}

TEST(DetectorPipelineTest, ShardedCheckListMatchesSerialExactly) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = 2 + trial % 15;
    const auto epoch = RandomEpoch(rng, nodes);
    RaceDetector serial(kNumPages);
    const auto expected = serial.BuildCheckList(epoch);
    for (int shards : {2, 3, 4, 8, 31}) {
      RaceDetector sharded(kNumPages);
      std::vector<DetectorStats> per_shard;
      const auto got = sharded.BuildCheckListSharded(epoch, shards, &per_shard);
      ASSERT_EQ(got.size(), expected.size()) << "trial " << trial << " shards " << shards;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SamePair(got[i], expected[i]))
            << "trial " << trial << " shards " << shards << " pair " << i;
      }
      // Per-shard stats must sum to the serial totals: every comparison is
      // done exactly once, just accounted to a different shard.
      DetectorStats sum;
      for (const DetectorStats& s : per_shard) {
        sum.Accumulate(s);
      }
      EXPECT_EQ(sum.interval_comparisons, serial.stats().interval_comparisons);
      EXPECT_EQ(sum.concurrent_pairs, serial.stats().concurrent_pairs);
      EXPECT_EQ(sum.page_overlap_probes, serial.stats().page_overlap_probes);
    }
  }
}

TEST(DetectorPipelineTest, ShardCountCappedAtRowCount) {
  std::mt19937 rng(1);
  const auto epoch = RandomEpoch(rng, 4);
  RaceDetector detector(kNumPages);
  std::vector<DetectorStats> per_shard;
  detector.BuildCheckListSharded(epoch, 64, &per_shard);
  EXPECT_LE(per_shard.size(), epoch.size());
  EXPECT_GE(per_shard.size(), 1u);
}

TEST(DetectorPipelineTest, PageListsAndPageBitmapsAgree) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = 2 + trial % 12;
    const auto epoch = RandomEpoch(rng, nodes);
    RaceDetector with_lists(kNumPages, OverlapMethod::kPageLists);
    RaceDetector with_bitmaps(kNumPages, OverlapMethod::kPageBitmaps);
    const auto lists = with_lists.BuildCheckList(epoch);
    const auto bitmaps = with_bitmaps.BuildCheckList(epoch);
    ASSERT_EQ(lists.size(), bitmaps.size()) << "trial " << trial;
    for (size_t i = 0; i < lists.size(); ++i) {
      EXPECT_TRUE(SamePair(lists[i], bitmaps[i])) << "trial " << trial << " pair " << i;
    }
    // Both probes see the same concurrent pairs; only the probe cost model
    // differs.
    EXPECT_EQ(with_lists.stats().concurrent_pairs, with_bitmaps.stats().concurrent_pairs);
    EXPECT_EQ(with_lists.stats().overlapping_pairs, with_bitmaps.stats().overlapping_pairs);
  }
}

TEST(DetectorPipelineTest, BitmapsNeededIsDeduplicatedAndOrdered) {
  std::mt19937 rng(99);
  const auto epoch = RandomEpoch(rng, 10);
  RaceDetector detector(kNumPages);
  const auto pairs = detector.BuildCheckList(epoch);
  const auto needed = RaceDetector::BitmapsNeeded(pairs);
  for (size_t i = 1; i < needed.size(); ++i) {
    EXPECT_LT(needed[i - 1], needed[i]) << "entries must be strictly increasing";
  }
}

TEST(DetectorPipelineTest, BitmapsNeededCoversEveryPairAndNothingElse) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto epoch = RandomEpoch(rng, 2 + trial % 10);
    RaceDetector detector(kNumPages);
    const auto pairs = detector.BuildCheckList(epoch);
    const auto needed = RaceDetector::BitmapsNeeded(pairs);
    const std::set<std::pair<IntervalId, PageId>> have(needed.begin(), needed.end());
    // Every (interval, page) bitmap a comparison will touch must be fetched...
    std::set<std::pair<IntervalId, PageId>> want;
    for (const CheckPair& pair : pairs) {
      for (PageId page : pair.pages) {
        want.insert({pair.a.id, page});
        want.insert({pair.b.id, page});
        EXPECT_TRUE(have.count({pair.a.id, page})) << "trial " << trial;
        EXPECT_TRUE(have.count({pair.b.id, page})) << "trial " << trial;
      }
    }
    // ...and nothing beyond that travels in the bitmap round.
    EXPECT_EQ(have, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cvm
