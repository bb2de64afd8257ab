// The benchmark's arithmetic on hand-made inputs, and a smoke-sized run of
// every workload through the same run/gate/split path the benchmark uses.
#include <gtest/gtest.h>

#include <algorithm>

#include "perfbench/stats.h"
#include "perfbench/trace_split.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

TEST(Stats, MedianAndQuantileInterpolateBetweenOrderStatistics) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({7}), 7);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  // Ten samples 1..10: the 0.9 quantile sits 10% of the way from 9 to 10.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {
    ten.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Quantile(ten, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Quantile(ten, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(ten, 1.0), 10);
}

TEST(Stats, RangePctIsSpreadOverMedian) {
  EXPECT_EQ(RangePct({5}), 0);
  EXPECT_EQ(RangePct({5, 5, 5}), 0);
  EXPECT_DOUBLE_EQ(RangePct({99, 100, 101}), 2.0);
}

TEST(Stats, Log2HistogramQuantileInterpolatesInsideTheRankBucket) {
  std::vector<uint64_t> buckets(65, 0);
  EXPECT_EQ(Log2HistogramQuantile(buckets, 0.5), 0);
  buckets[0] = 10;  // Ten zeros.
  EXPECT_EQ(Log2HistogramQuantile(buckets, 0.5), 0);
  buckets[0] = 0;
  buckets[3] = 99;  // [4, 8)
  buckets[10] = 1;  // [512, 1024)
  EXPECT_DOUBLE_EQ(Log2HistogramQuantile(buckets, 0.99), 8);
  EXPECT_DOUBLE_EQ(Log2HistogramQuantile(buckets, 1.0), 1024);
  // Rank 49.5 of 99 in [4, 8): halfway through the bucket.
  EXPECT_DOUBLE_EQ(Log2HistogramQuantile(buckets, 0.495), 6);
}

TEST(Stats, SelfTimeSubtractsTheUnionOfClippedChildren) {
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{10, 20}, {30, 50}}), 70);
  // Overlapping children count once; a child sticking out is clipped.
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{10, 40}, {30, 50}, {90, 130}}), 50);
  // A child wholly outside the parent does not count.
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{200, 300}}), 100);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {5, 15}, {20, 25}}, {0, 1e9}), 20);
}

cvm::obs::TraceEvent Span(const char* name, int node, double begin_ms, double end_ms) {
  cvm::obs::TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.node = node;
  e.wall_ts_ns = static_cast<uint64_t>(begin_ms * 1e6);
  e.wall_dur_ns = static_cast<uint64_t>((end_ms - begin_ms) * 1e6);
  e.sim_ts_ns = begin_ms * 2e6;  // The simulated clock runs at half speed.
  e.sim_dur_ns = (end_ms - begin_ms) * 2e6;
  return e;
}

TEST(TraceSplit, NestedSpansSplitIntoSelfTimes) {
  const std::vector<cvm::obs::TraceEvent> events = {
      Span("page.fault.write", 0, 10, 30),
      Span("page.fetch", 0, 15, 25),  // Inside the fault.
      Span("lock.acquire", 0, 35, 40),
      Span("barrier", 0, 50, 90),
      Span("detector.bitmaps", 0, 60, 70),       // Inside the barrier...
      Span("detector.compare.remote", 0, 65, 80),  // ...overlapping the first.
      Span("barrier", 1, 0, 10),
      Span("msg.send", 1, 0, 10),  // Not a layer span.
  };
  const LayerSplit split = SplitTrace(events, {{0, 100e6}, {0, 20e6}});
  EXPECT_DOUBLE_EQ(split.fault_self_host_ms, 10);
  EXPECT_DOUBLE_EQ(split.fetch_host_ms, 10);
  EXPECT_DOUBLE_EQ(split.lock_acquire_host_ms, 5);
  EXPECT_DOUBLE_EQ(split.lock_acquire_sim_ms, 10);
  EXPECT_DOUBLE_EQ(split.barrier_self_host_ms, 20 + 10);
  EXPECT_DOUBLE_EQ(split.barrier_self_sim_ms, 40 + 20);
  EXPECT_DOUBLE_EQ(split.detect_host_ms, 20);
  // Node 0: 100 - (fault 20 + lock 5 + barrier 40); node 1: 20 - 10.
  EXPECT_DOUBLE_EQ(split.instr_self_host_ms, 35 + 10);
  EXPECT_DOUBLE_EQ(split.diff_flush_host_ms, 0);
}

TEST(Fingerprint, MatchesExactlyTheExpectedSymbolsAndCounts) {
  using Line = cvm::RaceSummaryLine;
  EXPECT_TRUE(FingerprintMatches({}, {}));
  const std::vector<Line> want = {Line{"water_virial", 84, 84, -1}};
  EXPECT_TRUE(FingerprintMatches({Line{"water_virial", 84, 84, 2}}, want));
  EXPECT_FALSE(FingerprintMatches({Line{"water_virial", 84, 83, 2}}, want));
  EXPECT_FALSE(FingerprintMatches({}, want));
  EXPECT_FALSE(FingerprintMatches(
      {Line{"water_virial", 84, 84, 2}, Line{"water_potential", 0, 1, 2}}, want));
  EXPECT_FALSE(FingerprintMatches({Line{"water_virial", 84, 84, 2}}, {}));
}

class SmokeRun : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeRun, EveryRunPassesTheGateAndTracingKeepsTheSimulatedClock) {
  const std::optional<Workload> w = MakeWorkload(GetParam(), /*smoke=*/true);
  ASSERT_TRUE(w.has_value());
  const RunRecord detect = RunOnce(*w, 1, RunMode::kDetect);
  const RunRecord base = RunOnce(*w, 1, RunMode::kBase);
  const RunRecord traced = RunOnce(*w, 1, RunMode::kTraced);
  EXPECT_EQ(CheckRun(*w, detect), "");
  EXPECT_EQ(CheckRun(*w, base), "");
  EXPECT_EQ(CheckRun(*w, traced), "");
  EXPECT_EQ(CheckTracedMatches(*w, detect, traced), "");
  EXPECT_TRUE(base.result.races.empty());
  EXPECT_GT(detect.result.sim_time_ns, base.result.sim_time_ns);

  EXPECT_FALSE(traced.events.empty());
  EXPECT_EQ(traced.trace_dropped, 0u);
  ASSERT_EQ(traced.app_bodies.size(), static_cast<size_t>(w->options.num_nodes));
  double bodies_ms = 0;
  for (const Span1D& body : traced.app_bodies) {
    EXPECT_GT(body.length(), 0);
    bodies_ms += body.length() / 1e6;
  }
  const LayerSplit split = SplitTrace(traced.events, traced.app_bodies);
  EXPECT_GT(split.instr_self_host_ms, 0);
  EXPECT_LE(split.instr_self_host_ms, bodies_ms);
  EXPECT_GT(split.barrier_self_host_ms, 0);
  EXPECT_GT(split.fault_self_host_ms + split.fetch_host_ms, 0);
  EXPECT_GT(traced.counters.at("dsm.page_fetches"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun, ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& test_param) {
                           std::string name = test_param.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_FALSE(MakeWorkload("fft", false).has_value());
}

}  // namespace
}  // namespace perfbench
