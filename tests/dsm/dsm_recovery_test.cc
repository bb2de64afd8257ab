// Crash-tolerance tests (docs/FAULTS.md "Crash faults & recovery"): a
// seeded node crash must end the run as a recoverable event — no process
// abort, no hang — with every survivor rolled back to the last consistent
// barrier cut and the race report truncated to the fully-checked prefix.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/dsm/dsm.h"
#include "src/fault/fault.h"
#include "src/race/race_report.h"

namespace cvm {
namespace {

SorApp::Params SmallSor() {
  SorApp::Params params;
  params.rows = 34;
  params.cols = 32;
  params.iters = 2;
  return params;
}

WaterApp::Params SmallWater() {
  WaterApp::Params params;
  params.molecules = 64;
  params.iters = 2;
  return params;
}

struct Outcome {
  bool verified = false;
  std::vector<RaceReport> races;
  CrashOutcome recovery;
  uint64_t barriers = 0;
  uint64_t attempts = 0;  // Transmission attempts (fault::FaultStats::data_frames).
};

// Barrier shapes under test: the flat master barrier, or the kept scaling
// shape (fanout-2 combine tree, distributed compares, two-epoch batches).
enum class Shape { kFlat, kTree };

template <typename App>
Outcome RunApp(typename App::Params params, const fault::FaultPlan& plan, int nodes,
               DetectionPipeline pipeline = DetectionPipeline::kSerial,
               Shape shape = Shape::kFlat) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.fault_plan = plan;
  options.detection_pipeline = pipeline;
  if (shape == Shape::kTree) {
    options.barrier_tree = true;
    options.barrier_fanout = 2;
    options.detect_batch = 2;
  }
  auto app = std::make_unique<App>(params);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  Outcome outcome;
  outcome.verified = app->Verify();
  outcome.races = std::move(result.races);
  outcome.recovery = result.recovery;
  outcome.barriers = result.barriers;
  outcome.attempts = result.fault.data_frames;
  return outcome;
}

std::string Summary(const std::vector<RaceReport>& races) {
  std::string text;
  for (const RaceSummaryLine& line : SummarizeRaces(races)) {
    text += line.symbol + ":" + std::to_string(line.write_write) + ":" +
            std::to_string(line.read_write) + ":" + std::to_string(line.first_epoch) + "\n";
  }
  return text;
}

std::vector<RaceReport> ReportsThrough(const std::vector<RaceReport>& races,
                                       EpochId last_epoch) {
  std::vector<RaceReport> prefix;
  for (const RaceReport& report : races) {
    if (report.epoch <= last_epoch) {
      prefix.push_back(report);
    }
  }
  return prefix;
}

TEST(DsmRecoveryTest, SeededCrashIsARecoverableEventNotAnAbort) {
  const auto plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 3);
  const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_EQ(outcome.recovery.cause, CrashCause::kFailStop);
  EXPECT_GE(outcome.recovery.crash_node, 0);
  EXPECT_LT(outcome.recovery.crash_node, 4);
  EXPECT_EQ(outcome.recovery.crash_epoch, 1);
  // The crash fires at barrier 1, so only barrier 0's detection completed.
  EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0);
  // Every node (the victim included) restored the checkpointed cut.
  EXPECT_EQ(outcome.recovery.rollbacks, 4u);
  // A torn run does not verify — the workload is the service's to retry.
  EXPECT_FALSE(outcome.verified);
}

TEST(DsmRecoveryTest, CrashedRunReportsThePrefixTheConsistentCutCovers) {
  // Buggy water races from epoch 2 on; crash at epoch 4 so some (not all)
  // racy epochs complete. The crashed run's reports must be exactly the
  // baseline reports whose detecting barrier is inside the consistent cut.
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome clean = RunApp<WaterApp>(SmallWater(), off, 4);
  ASSERT_TRUE(clean.verified);
  ASSERT_FALSE(clean.races.empty());

  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  plan.crash_epoch = 4;
  const Outcome crashed = RunApp<WaterApp>(SmallWater(), plan, 4);
  ASSERT_TRUE(crashed.recovery.crashed);
  EXPECT_EQ(crashed.recovery.crash_epoch, 4);
  EXPECT_EQ(crashed.recovery.last_consistent_epoch, 3);
  EXPECT_FALSE(crashed.races.empty());  // Epoch-2/3 races survived the rollback.
  EXPECT_EQ(Summary(crashed.races),
            Summary(ReportsThrough(clean.races, crashed.recovery.last_consistent_epoch)));
}

TEST(DsmRecoveryTest, MasterCrashIsDetectedBySurvivingWorkers) {
  // Node 0 runs the barrier and the detection pipeline; its death is the
  // worst case (every survivor is mid-wait on it, none can be released).
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  plan.crash_node = 0;
  plan.crash_epoch = 1;
  const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_EQ(outcome.recovery.crash_node, 0);
  EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0);
  EXPECT_EQ(outcome.recovery.rollbacks, 4u);
}

TEST(DsmRecoveryTest, LockHeavyAppSurvivesACrashWithoutHanging) {
  // TSP workers block in lock acquires, not just barriers — the abort has
  // to wake those waits too or the run wedges (the test's 300 s ctest
  // timeout is the hang detector).
  TspApp::Params params;
  params.num_cities = 10;
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 5);
  plan.crash_epoch = 1;
  const Outcome outcome = RunApp<TspApp>(params, plan, 4);
  ASSERT_TRUE(outcome.recovery.crashed);
  EXPECT_EQ(outcome.recovery.crash_epoch, 1);
}

// A peer that fail-stops with this node's request still queued in its inbox
// never answers it. In a crash-armed run every plain wait (here FetchPage's
// page-reply wait) probes its peers the way the barrier waits do, so the dead
// peer surfaces as kPeerUnreachable and the run aborts instead of hanging.
// The window (a request landing between the victim's last poll and its
// crash point) is forced: node 1 waits, without polling, until node 0's page
// request is in its inbox, then fail-stops the way MaybeCrashAtBarrier does.
TEST(DsmRecoveryTest, PlainWaitOnAPeerThatDiesWithTheRequestQueuedAborts) {
  DsmOptions options;
  options.num_nodes = 2;
  options.fault_plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
  options.fault_plan.crash_node = 1;
  options.fault_plan.crash_epoch = 0;
  DsmSystem system(options);
  const GlobalAddr base = system.Alloc("cells", 2 * options.page_size);
  // A word on the page whose home, and so whose manager, is node 1.
  const GlobalAddr on_node1 =
      (base / options.page_size) % 2 == 1 ? base : base + options.page_size;
  Network& net = system.network();
  auto run = std::async(std::launch::async, [&] {
    return system.Run([&](NodeContext& ctx) {
      if (ctx.id() == 0) {
        ctx.Read<uint32_t>(on_node1);
        return;
      }
      while (net.PendingCount(1).load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      net.MarkNodeDead(1);
      throw RunAbortError{1, 0, /*self_crash=*/true};
    });
  });
  if (run.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "node 0 still waits on the dead node's page reply\n");
    std::_Exit(1);  // The run's threads cannot be joined.
  }
  const RunResult result = run.get();
  EXPECT_TRUE(result.recovery.crashed);
  EXPECT_EQ(result.recovery.crash_node, 1);
  EXPECT_EQ(result.recovery.rollbacks, 2u);
  EXPECT_GE(result.fault.unreachable, 1u);
}

// A send that exhausts a small --fault-max-attempts budget under a message
// profile must abort the run, although its suspect is alive and the abort's
// own frames lose their first attempts too: every other live node has to be
// reached. The first four (profile, budget) cells once hung SOR 64 on 4 nodes
// in every fault seed tried; the last two lose every frame, so the abort's
// resends must give up, each after one attempt once its budget is spent.
struct BudgetCell {
  fault::FaultProfile profile;
  uint32_t max_send_attempts;
  double drop_prob = -1;  // < 0: the profile's own rate.
};

class ExhaustedBudgetTest
    : public ::testing::TestWithParam<std::tuple<BudgetCell, uint64_t>> {};

TEST_P(ExhaustedBudgetTest, AbortsTheRunInsteadOfHanging) {
  const auto& [cell, seed] = GetParam();
  SorApp::Params params;
  params.rows = 66;
  params.cols = 64;
  params.iters = 4;
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(cell.profile, seed);
  plan.max_send_attempts = cell.max_send_attempts;
  if (cell.drop_prob >= 0) {
    plan.drop_prob = cell.drop_prob;
  }
  auto run = std::async(std::launch::async, [&] { return RunApp<SorApp>(params, plan, 4); });
  if (run.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "%s with budget %u, seed %llu: the run hangs\n",
                 fault::ProfileName(cell.profile), cell.max_send_attempts,
                 static_cast<unsigned long long>(seed));
    std::_Exit(1);  // The run's threads cannot be joined.
  }
  const Outcome outcome = run.get();
  EXPECT_TRUE(outcome.recovery.crashed);
  // No node fail-stopped: the run ended on a suspicion.
  EXPECT_EQ(outcome.recovery.cause, CrashCause::kSuspicion);
  if (cell.drop_prob == 1.0) {
    // Each node spends one budget on the send that fails, then one budget
    // plus 255 single-attempt resends (kAbortSends = 256) on each peer.
    constexpr uint64_t kNodes = 4;
    const uint64_t budget = cell.max_send_attempts;
    EXPECT_LE(outcome.attempts, kNodes * (budget + (kNodes - 1) * (budget + 255)));
  }
}

std::string CellName(const ::testing::TestParamInfo<ExhaustedBudgetTest::ParamType>& info) {
  const auto& [cell, seed] = info.param;
  return std::string(fault::ProfileName(cell.profile)) + "Budget" +
         std::to_string(cell.max_send_attempts) + (cell.drop_prob >= 0 ? "DropAll" : "") +
         "Seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    BudgetCells, ExhaustedBudgetTest,
    ::testing::Combine(::testing::Values(BudgetCell{fault::FaultProfile::kStress, 2},
                                         BudgetCell{fault::FaultProfile::kPartition, 3},
                                         BudgetCell{fault::FaultProfile::kLossy, 1},
                                         BudgetCell{fault::FaultProfile::kBursty, 2},
                                         BudgetCell{fault::FaultProfile::kLossy, 2, 1.0},
                                         BudgetCell{fault::FaultProfile::kLossy, 512, 1.0}),
                       ::testing::Values(1u, 2u, 3u)),
    CellName);

TEST(DsmRecoveryTest, CrashRecoveryWorksUnderEveryDetectionPipeline) {
  for (const DetectionPipeline pipeline :
       {DetectionPipeline::kSerial, DetectionPipeline::kDistributed}) {
    const auto plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 7);
    const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4, pipeline);
    ASSERT_TRUE(outcome.recovery.crashed) << static_cast<int>(pipeline);
    EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0) << static_cast<int>(pipeline);
  }
}

// Crashes a node at epoch 1 of an 8-node tree run: the root (node 0), an
// interior node (1) and a leaf (7). The tree's watchful waits must find the
// dead node — a parent probes its missing children, a child its parent —
// and the survivors must keep exactly the reports of the consistent cut.
template <typename App>
void ExpectTreeCrashRecovery(const typename App::Params& params) {
  constexpr int kNodes = 8;
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome clean =
      RunApp<App>(params, off, kNodes, DetectionPipeline::kDistributed, Shape::kTree);
  ASSERT_TRUE(clean.verified);
  for (const NodeId victim : {0, 1, 7}) {
    fault::FaultPlan plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 1);
    plan.crash_node = victim;
    plan.crash_epoch = 1;
    const Outcome crashed =
        RunApp<App>(params, plan, kNodes, DetectionPipeline::kDistributed, Shape::kTree);
    ASSERT_TRUE(crashed.recovery.crashed) << "victim " << victim;
    EXPECT_EQ(crashed.recovery.cause, CrashCause::kFailStop) << "victim " << victim;
    EXPECT_EQ(crashed.recovery.crash_node, victim);
    EXPECT_EQ(crashed.recovery.last_consistent_epoch, 0) << "victim " << victim;
    EXPECT_EQ(Summary(crashed.races),
              Summary(ReportsThrough(clean.races, crashed.recovery.last_consistent_epoch)))
        << "victim " << victim;
  }
}

TEST(DsmRecoveryTest, TreeBarrierSorRecoversFromRootInteriorAndLeafCrashes) {
  ExpectTreeCrashRecovery<SorApp>(SmallSor());
}

TEST(DsmRecoveryTest, TreeBarrierWaterRecoversFromRootInteriorAndLeafCrashes) {
  ExpectTreeCrashRecovery<WaterApp>(SmallWater());
}

TEST(DsmRecoveryTest, DisarmedCrashPlanPerturbsNothing) {
  // A crash profile with the epoch disarmed (the service's reboot re-run)
  // keeps the reliable transport but must reproduce the baseline exactly.
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome clean = RunApp<WaterApp>(SmallWater(), off, 4);
  fault::FaultPlan reboot = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 9);
  reboot.crash_epoch = -1;
  const Outcome rerun = RunApp<WaterApp>(SmallWater(), reboot, 4);
  EXPECT_FALSE(rerun.recovery.crashed);
  EXPECT_TRUE(rerun.verified);
  EXPECT_EQ(Summary(clean.races), Summary(rerun.races));
  EXPECT_EQ(clean.barriers, rerun.barriers);
}

}  // namespace
}  // namespace cvm
