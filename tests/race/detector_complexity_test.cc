// Tests of the comparison algorithm's §4/§5.2 complexity claims: the upper
// bound O(i^2 p^2) on interval comparisons, the pruning that synchronization
// provides ("the same act that creates intervals also removes many interval
// pairs from consideration"), and epoch attribution of reports.
#include <gtest/gtest.h>

#include "src/race/detector.h"

namespace cvm {
namespace {

// Builds p nodes x i intervals each. If `chained` is true, intervals are
// totally ordered across nodes (a release/acquire chain: each interval has
// seen all earlier ones); otherwise all intervals are mutually concurrent.
std::vector<IntervalRecord> MakeEpoch(int p, int i, bool chained) {
  std::vector<IntervalRecord> records;
  VectorClock chain_vc(p);
  for (int idx = 0; idx < i; ++idx) {
    for (NodeId n = 0; n < p; ++n) {
      IntervalRecord r;
      r.id = IntervalId{n, idx};
      if (chained) {
        chain_vc.Set(n, idx);
        r.vc = chain_vc;
      } else {
        r.vc = VectorClock(p);
        r.vc.Set(n, idx);
      }
      r.write_pages = {static_cast<PageId>(n % 4)};
      records.push_back(r);
    }
  }
  return records;
}

TEST(DetectorComplexityTest, ComparisonsBoundedByIsquaredPsquared) {
  const int p = 4;
  const int i = 6;
  RaceDetector detector(16);
  detector.BuildCheckList(MakeEpoch(p, i, /*chained=*/false));
  const uint64_t bound = static_cast<uint64_t>(i) * i * p * p;
  EXPECT_LE(detector.stats().interval_comparisons, bound);
  // Same-node pairs are skipped outright: (p*i choose 2) minus p*(i choose 2).
  const uint64_t total_pairs = static_cast<uint64_t>(p * i) * (p * i - 1) / 2;
  const uint64_t same_node = static_cast<uint64_t>(p) * i * (i - 1) / 2;
  EXPECT_EQ(detector.stats().interval_comparisons, total_pairs - same_node);
}

TEST(DetectorComplexityTest, SynchronizationChainsPruneAllPairs) {
  RaceDetector detector(16);
  const auto pairs = detector.BuildCheckList(MakeEpoch(4, 6, /*chained=*/true));
  // Fully ordered execution: every comparison runs, no pair survives.
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(detector.stats().concurrent_pairs, 0u);
  EXPECT_EQ(detector.stats().page_overlap_probes, 0u) << "no overlap probe without concurrency";
  EXPECT_EQ(detector.stats().intervals_in_overlap, 0u);
}

TEST(DetectorComplexityTest, UnsynchronizedExecutionKeepsConflictingPairs) {
  RaceDetector detector(16);
  const auto pairs = detector.BuildCheckList(MakeEpoch(4, 3, /*chained=*/false));
  // All cross-node pairs are concurrent; only same-page (n%4) ones conflict —
  // with p=4 every node writes a distinct page, so zero overlap...
  EXPECT_EQ(detector.stats().concurrent_pairs, detector.stats().interval_comparisons);
  EXPECT_TRUE(pairs.empty());

  // ...but two nodes sharing a page (p=5 wraps onto page 0) do overlap.
  RaceDetector detector5(16);
  const auto pairs5 = detector5.BuildCheckList(MakeEpoch(5, 2, /*chained=*/false));
  EXPECT_GT(pairs5.size(), 0u);
  for (const CheckPair& pair : pairs5) {
    EXPECT_EQ(pair.pages, std::vector<PageId>{0});
    EXPECT_TRUE((pair.a.id.node % 4) == 0 && (pair.b.id.node % 4) == 0);
  }
}

TEST(DetectorComplexityTest, StatsAccumulateAcrossEpochs) {
  RaceDetector detector(16);
  detector.BuildCheckList(MakeEpoch(2, 2, false));
  const uint64_t after_first = detector.stats().interval_comparisons;
  detector.BuildCheckList(MakeEpoch(2, 2, false));
  EXPECT_EQ(detector.stats().interval_comparisons, 2 * after_first);
  DetectorStats copy;
  copy.Accumulate(detector.stats());
  copy.Accumulate(detector.stats());
  EXPECT_EQ(copy.interval_comparisons, 4 * after_first);
  // A fresh detector starts from zero.
  EXPECT_EQ(RaceDetector(16).stats().interval_comparisons, 0u);
}

}  // namespace
}  // namespace cvm
