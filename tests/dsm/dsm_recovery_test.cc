// Crash-tolerance tests (docs/FAULTS.md "Crash faults & recovery"): a
// seeded node crash must end the run as a recoverable event — no process
// abort, no hang — with every survivor rolled back to the last consistent
// barrier cut and the race report truncated to the fully-checked prefix.
// A fabric that hosted a crash must also Reset() back to a bit-identical
// clean state (the stronger property the service's quarantine-and-rebuild
// policy does not even rely on).
#include <gtest/gtest.h>

#include <memory>
#include <string>
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
};

template <typename App>
Outcome RunApp(typename App::Params params, const fault::FaultPlan& plan, int nodes,
               DetectionPipeline pipeline = DetectionPipeline::kSerial) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.fault_plan = plan;
  options.detection_pipeline = pipeline;
  auto app = std::make_unique<App>(params);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  Outcome outcome;
  outcome.verified = app->Verify();
  outcome.races = std::move(result.races);
  outcome.recovery = result.recovery;
  outcome.barriers = result.barriers;
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

TEST(DsmRecoveryTest, CrashRecoveryWorksUnderEveryDetectionPipeline) {
  for (const DetectionPipeline pipeline :
       {DetectionPipeline::kSerial, DetectionPipeline::kDistributed}) {
    const auto plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 7);
    const Outcome outcome = RunApp<SorApp>(SmallSor(), plan, 4, pipeline);
    ASSERT_TRUE(outcome.recovery.crashed) << static_cast<int>(pipeline);
    EXPECT_EQ(outcome.recovery.last_consistent_epoch, 0) << static_cast<int>(pipeline);
  }
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

TEST(DsmRecoveryTest, CrashedFabricResetsToACleanBitIdenticalState) {
  // Stronger than the service needs (it quarantines crashed fabrics): even
  // a fabric that just hosted a crash must Reset() to a state whose next
  // clean run is indistinguishable from a fresh construction's.
  const auto off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const Outcome fresh = RunApp<WaterApp>(SmallWater(), off, 4);

  DsmOptions options;
  options.num_nodes = 4;
  options.fault_plan = fault::FaultPlan::FromProfile(fault::FaultProfile::kCrash, 3);
  DsmSystem system(options);
  auto crashed_app = std::make_unique<WaterApp>(SmallWater());
  crashed_app->Setup(system);
  RunResult crashed =
      system.Run([&crashed_app](NodeContext& ctx) { crashed_app->Run(ctx); });
  ASSERT_TRUE(crashed.recovery.crashed);

  system.Reset();
  system.SetFaultPlan(fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1));
  auto clean_app = std::make_unique<WaterApp>(SmallWater());
  clean_app->Setup(system);
  RunResult rerun = system.Run([&clean_app](NodeContext& ctx) { clean_app->Run(ctx); });
  EXPECT_TRUE(clean_app->Verify());
  EXPECT_FALSE(rerun.recovery.crashed);
  EXPECT_EQ(Summary(fresh.races), Summary(rerun.races));
  EXPECT_EQ(fresh.barriers, rerun.barriers);
}

}  // namespace
}  // namespace cvm
