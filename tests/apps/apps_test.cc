// End-to-end tests of the four evaluation applications: results verify
// against serial references, and the detector finds exactly the races the
// paper reports — TSP's benign read-write races on the tour bound, Water's
// write-write bug on the global accumulator, and nothing in FFT or SOR.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/fft.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/apps/workload.h"

namespace cvm {
namespace {

DsmOptions TestOptions(int nodes) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 1024;
  options.max_shared_bytes = 8ull << 20;
  return options;
}

bool AnyRaceOnSymbol(const std::vector<RaceReport>& races, const std::string& prefix) {
  return std::any_of(races.begin(), races.end(), [&](const RaceReport& r) {
    return r.symbol.rfind(prefix, 0) == 0;
  });
}

TEST(SorAppTest, VerifiesAndIsRaceFree) {
  SorApp::Params params;
  params.rows = 34;
  params.cols = 32;
  params.iters = 3;
  params.page_size = 1024;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<SorApp>(params); }, TestOptions(4));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.detect.races.empty())
      << "unexpected: " << result.detect.races.front().ToString();
  // Paper Table 3: SOR exhibits no unsynchronized sharing at all.
  EXPECT_EQ(result.detect.detector.overlapping_pairs, 0u);
}

class SorProtocolTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SorProtocolTest, VerifiesAgainstTheStreamedReference) {
  SorApp::Params params;
  params.rows = 34;
  params.cols = 32;
  params.iters = 3;
  params.page_size = 1024;
  DsmOptions options = TestOptions(4);
  options.protocol = GetParam();
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<SorApp>(params); }, options);
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.detect.races.empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, SorProtocolTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

TEST(FftAppTest, VerifiesWithFalseSharingButNoRaces) {
  FftApp::Params params;
  params.rows = 32;
  params.cols = 32;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<FftApp>(params); }, TestOptions(4));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.detect.races.empty())
      << "unexpected: " << result.detect.races.front().ToString();
  // The column phase's strided writes share pages across nodes: concurrent
  // intervals with page overlap that bitmap comparison clears as false
  // sharing (paper: FFT uses intervals/bitmaps without reporting races).
  EXPECT_GT(result.detect.detector.overlapping_pairs, 0u);
}

TEST(TspAppTest, FindsOptimalTourAndReportsBoundRaces) {
  TspApp::Params params;
  params.num_cities = 10;
  params.prefix_depth = 2;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<TspApp>(params); }, TestOptions(4));
  EXPECT_TRUE(result.verified) << "TSP result wrong despite benign races";
  // The unsynchronized tour-bound reads are real (benign) data races.
  EXPECT_TRUE(AnyRaceOnSymbol(result.detect.races, "tsp_min_tour"))
      << "expected read-write races on the tour bound";
  for (const RaceReport& race : result.detect.races) {
    // All TSP races involve the bound or the lock-adjacent best-tour page.
    EXPECT_TRUE(race.symbol.rfind("tsp_min_tour", 0) == 0 ||
                race.symbol.rfind("tsp_queue_head", 0) == 0 ||
                race.symbol.rfind("tsp_best_tour", 0) == 0)
        << race.ToString();
  }
}

TEST(WaterAppTest, BuggyVirialUpdateIsAWriteWriteRace) {
  WaterApp::Params params;
  params.molecules = 32;
  params.iters = 2;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<WaterApp>(params); }, TestOptions(4));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(AnyRaceOnSymbol(result.detect.races, "water_virial"))
      << "expected the injected Splash2-style bug to be caught";
  const bool has_ww = std::any_of(
      result.detect.races.begin(), result.detect.races.end(), [](const RaceReport& r) {
        return r.symbol.rfind("water_virial", 0) == 0 && r.kind == RaceKind::kWriteWrite;
      });
  EXPECT_TRUE(has_ww) << "virial RMW collisions must include write-write";
}

TEST(WaterAppTest, FixedVersionHasNoVirialRace) {
  WaterApp::Params params;
  params.molecules = 32;
  params.iters = 2;
  params.fix_virial_bug = true;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<WaterApp>(params); }, TestOptions(4));
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(AnyRaceOnSymbol(result.detect.races, "water_virial"))
      << "the repaired version must be clean";
}

TEST(WorkloadTest, SlowdownIsMeasurableAndModest) {
  SorApp::Params params;
  params.rows = 18;
  params.cols = 16;
  params.iters = 2;
  params.page_size = 1024;
  WorkloadResult result =
      RunWorkload([&] { return std::make_unique<SorApp>(params); }, TestOptions(2));
  EXPECT_GT(result.Slowdown(), 1.0);
  EXPECT_LT(result.Slowdown(), 10.0);
  double total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    total += result.OverheadFraction(static_cast<Bucket>(b));
  }
  EXPECT_NEAR(total, result.TotalOverheadFraction(), 1e-9);
}

}  // namespace
}  // namespace cvm
