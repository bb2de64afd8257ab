// Application partition-edge tests: node counts that do not divide the
// problem evenly, more nodes than work, and single-node degenerations must
// still verify and stay race-clean (modulo the intentional races).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/fft.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/apps/workload.h"

namespace cvm {
namespace {

DsmOptions Options(int nodes) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 1024;
  options.max_shared_bytes = 8ull << 20;
  return options;
}

class NodeCountTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeCountTest, SorVerifiesAtAnyNodeCount) {
  SorApp::Params params;
  params.rows = 26;  // 24 interior rows: uneven splits for p=5, 7.
  params.cols = 24;
  params.iters = 2;
  params.page_size = 1024;
  WorkloadResult result = RunWorkloadDetectOnly(
      [&] { return std::make_unique<SorApp>(params); }, Options(GetParam()));
  EXPECT_TRUE(result.verified) << GetParam() << " nodes";
  EXPECT_TRUE(result.detect.races.empty());
}

TEST_P(NodeCountTest, FftVerifiesAtAnyNodeCount) {
  FftApp::Params params;
  params.rows = 32;
  params.cols = 32;
  WorkloadResult result = RunWorkloadDetectOnly(
      [&] { return std::make_unique<FftApp>(params); }, Options(GetParam()));
  EXPECT_TRUE(result.verified) << GetParam() << " nodes";
  EXPECT_TRUE(result.detect.races.empty());
}

TEST_P(NodeCountTest, TspOptimalAtAnyNodeCount) {
  TspApp::Params params;
  params.num_cities = 9;
  params.prefix_depth = 2;
  params.page_size = 1024;
  WorkloadResult result = RunWorkloadDetectOnly(
      [&] { return std::make_unique<TspApp>(params); }, Options(GetParam()));
  EXPECT_TRUE(result.verified) << GetParam() << " nodes";
}

TEST_P(NodeCountTest, WaterVerifiesAtAnyNodeCount) {
  WaterApp::Params params;
  params.molecules = 27;  // Uneven for most p.
  params.iters = 2;
  params.page_size = 1024;
  WorkloadResult result = RunWorkloadDetectOnly(
      [&] { return std::make_unique<WaterApp>(params); }, Options(GetParam()));
  EXPECT_TRUE(result.verified) << GetParam() << " nodes";
  // Only the intentional virial races may appear.
  for (const RaceReport& race : result.detect.races) {
    EXPECT_EQ(race.symbol.rfind("water_virial", 0), 0u) << race.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, NodeCountTest, ::testing::Values(1, 2, 3, 5, 7),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "p";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(NodeCountTest, MoreNodesThanWorkStillTerminates) {
  // 10 nodes, 8 interior SOR rows: two nodes idle every iteration.
  SorApp::Params params;
  params.rows = 10;
  params.cols = 16;
  params.iters = 2;
  params.page_size = 1024;
  WorkloadResult result = RunWorkloadDetectOnly(
      [&] { return std::make_unique<SorApp>(params); }, Options(10));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.detect.races.empty());
}

}  // namespace
}  // namespace cvm
