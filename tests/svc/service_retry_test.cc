// Service-level crash recovery: a workload whose run ends in a node crash is
// requeued with backoff (up to the retry budget) and retried on a fresh
// fabric, and tenants sharing the service are completely unaffected — their
// reports stay byte-identical to an undisturbed service's.
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/dsm/dsm.h"
#include "src/obs/metrics.h"
#include "src/svc/service.h"
#include "src/svc/tenant.h"

namespace cvm::svc {
namespace {

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.workers = 1;  // One worker: crashed and healthy runs share it in turn.
  config.nodes = 4;
  config.max_shared_bytes = 16ull << 20;
  config.retry_backoff_base_s = 0.0001;  // Keep test wall time tiny.
  config.retry_backoff_cap_s = 0.001;
  return config;
}

WorkloadRequest CrashReq(const std::string& tenant, bool reboot, uint64_t seed = 5) {
  WorkloadRequest request;
  request.tenant = tenant;
  request.app = "sor";
  request.size = 32;
  request.seed = seed;
  request.fault_profile = fault::FaultProfile::kCrash;
  request.fault_crash_reboot = reboot;
  return request;
}

std::string RaceStream(const std::vector<RaceReport>& races) {
  std::ostringstream out;
  for (const RaceReport& race : races) {
    out << race.ToString() << "\n";
  }
  return out.str();
}

TEST(ServiceRetryTest, TransientCrashIsRetriedOnceAndSucceeds) {
  DsmService service(SmallConfig());
  service.Start();
  ASSERT_NE(service.Submit(CrashReq("chaos", /*reboot=*/true)), 0u);
  service.Drain();
  service.Stop();

  // One outcome: the crashed first attempt recorded none, only the clean
  // reboot re-run did.
  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].verified);
  EXPECT_FALSE(outcomes[0].failed);
  EXPECT_EQ(outcomes[0].attempts, 1u);
  EXPECT_FALSE(outcomes[0].recovery.crashed);

  const SchedulerStats stats = service.scheduler().stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(service.scheduler().tenant_counts().at("chaos").retried, 1u);

  ASSERT_NE(service.metrics(), nullptr);
  EXPECT_EQ(service.metrics()->counter(TenantMetricName("chaos", "retries"))->value(), 1u);
  EXPECT_EQ(service.metrics()->counter("svc.failed")->value(), 0u);
}

TEST(ServiceRetryTest, PermanentCrashSpendsTheBudgetThenFailsOnlyThatWorkload) {
  ServiceConfig config = SmallConfig();
  config.retry_budget = 2;
  DsmService service(config);
  service.Start();
  // A permanent crash recurs on every retry; the victim tenant must fail
  // without taking the healthy tenant's workload with it.
  ASSERT_NE(service.Submit(CrashReq("bad", /*reboot=*/false)), 0u);
  WorkloadRequest good;
  good.tenant = "good";
  good.app = "water";
  good.size = 64;
  ASSERT_NE(service.Submit(good), 0u);
  service.Drain();
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  const WorkloadOutcome* bad = nullptr;
  const WorkloadOutcome* healthy = nullptr;
  for (const WorkloadOutcome& outcome : outcomes) {
    (outcome.request.tenant == "bad" ? bad : healthy) = &outcome;
  }
  ASSERT_NE(bad, nullptr);
  ASSERT_NE(healthy, nullptr);

  EXPECT_TRUE(bad->failed);
  EXPECT_FALSE(bad->verified);
  EXPECT_EQ(bad->attempts, 2u);  // Initial try + 2 retries, all crashed.
  EXPECT_TRUE(bad->recovery.crashed);
  EXPECT_EQ(service.scheduler().stats().retried, 2u);

  // The healthy tenant is untouched: verified, unfailed, and its (buggy
  // water) race report byte-identical to a service that saw no crashes.
  EXPECT_TRUE(healthy->verified);
  EXPECT_FALSE(healthy->failed);
  ASSERT_FALSE(healthy->races.empty());

  DsmService baseline_service(SmallConfig());
  baseline_service.Start();
  WorkloadRequest baseline_req;
  baseline_req.tenant = "good";
  baseline_req.app = "water";
  baseline_req.size = 64;
  ASSERT_NE(baseline_service.Submit(baseline_req), 0u);
  baseline_service.Drain();
  baseline_service.Stop();
  const std::vector<WorkloadOutcome> baseline = baseline_service.outcomes();
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_EQ(RaceStream(healthy->races), RaceStream(baseline[0].races));
}

TEST(ServiceRetryTest, ZeroRetryBudgetFailsTheFirstCrashImmediately) {
  ServiceConfig config = SmallConfig();
  config.retry_budget = 0;
  DsmService service(config);
  service.Start();
  ASSERT_NE(service.Submit(CrashReq("chaos", /*reboot=*/true)), 0u);
  service.Drain();
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].failed);
  EXPECT_EQ(outcomes[0].attempts, 0u);
  EXPECT_TRUE(outcomes[0].recovery.crashed);
  EXPECT_EQ(service.scheduler().stats().retried, 0u);
}

}  // namespace
}  // namespace cvm::svc
