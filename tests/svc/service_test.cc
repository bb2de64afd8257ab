// DsmService end-to-end tests: admission through per-request fabrics to
// outcomes, per-tenant metrics, and tenant trace tracks.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/apps/app_catalog.h"
#include "src/dsm/dsm.h"
#include "src/svc/service.h"

namespace cvm::svc {
namespace {

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.workers = 2;
  config.nodes = 4;
  config.max_shared_bytes = 16ull << 20;
  return config;
}

WorkloadRequest Req(const std::string& tenant, const std::string& app, int64_t size) {
  WorkloadRequest request;
  request.tenant = tenant;
  request.app = app;
  request.size = size;
  return request;
}

std::string RaceStream(const std::vector<RaceReport>& races) {
  std::ostringstream out;
  for (const RaceReport& race : races) {
    out << race.ToString() << "\n";
  }
  return out.str();
}

TEST(ServiceTest, ServesMultipleTenantsToCompletion) {
  DsmService service(SmallConfig());
  service.Start();
  ASSERT_NE(service.Submit(Req("alpha", "fft", 32)), 0u);
  ASSERT_NE(service.Submit(Req("beta", "water", 64)), 0u);
  ASSERT_NE(service.Submit(Req("alpha", "sor", 32)), 0u);
  service.Drain();
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const WorkloadOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.verified) << outcome.request.app;
    EXPECT_EQ(outcome.dispatch_unhandled, 0u);
    EXPECT_GT(outcome.sim_time_ns, 0);
    EXPECT_GE(outcome.service_s, 0);
    EXPECT_GE(outcome.total_s, outcome.service_s);
    // fft and sor are race-free; water carries the intentional bug.
    if (outcome.request.app == "water") {
      EXPECT_FALSE(outcome.races.empty());
    } else {
      EXPECT_TRUE(outcome.races.empty()) << outcome.request.app;
    }
  }
  EXPECT_EQ(service.scheduler().stats().completed, 3u);
}

TEST(ServiceTest, SizesLocksForLargeWater) {
  // Water takes 8 + ceil(molecules / 8) locks: 456 molecules need 65, one
  // more than the default. Each request's fabric is sized for it.
  EXPECT_EQ(CatalogLocksNeeded(CatalogRequest{"water", 456}), 65);
  EXPECT_EQ(CatalogLocksNeeded(CatalogRequest{"water", 448}), 64);
  ServiceConfig config = SmallConfig();
  config.workers = 1;
  config.nodes = 2;
  DsmService service(config);
  service.Start();
  ASSERT_NE(service.Submit(Req("alpha", "water", 64)), 0u);
  ASSERT_NE(service.Submit(Req("alpha", "water", 456)), 0u);
  service.Drain();
  service.Stop();
  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const WorkloadOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.verified) << outcome.request.size;
    EXPECT_FALSE(outcome.races.empty()) << outcome.request.size;
  }
}

TEST(ServiceTest, RejectsUnknownAppAtAdmission) {
  DsmService service(SmallConfig());
  service.Start();
  std::string reason;
  EXPECT_EQ(service.Submit(Req("alpha", "raytracer", 1), &reason), 0u);
  EXPECT_NE(reason.find("unknown app"), std::string::npos);
  service.Stop();
  EXPECT_EQ(service.scheduler().stats().rejected, 1u);
  EXPECT_TRUE(service.outcomes().empty());
}

TEST(ServiceTest, ServedRunsMatchDedicatedSystem) {
  // Two water runs back to back through one worker: both must report exactly
  // the race stream a dedicated DsmSystem produces.
  ServiceConfig config = SmallConfig();
  config.workers = 1;
  DsmService service(config);
  service.Start();
  ASSERT_NE(service.Submit(Req("alpha", "water", 64)), 0u);
  service.Drain();
  ASSERT_NE(service.Submit(Req("alpha", "water", 64)), 0u);
  service.Drain();
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);

  DsmOptions options;
  options.num_nodes = config.nodes;
  options.max_shared_bytes = config.max_shared_bytes;
  DsmSystem dedicated(options);
  CatalogRequest request;
  request.app = "water";
  request.size = 64;
  auto app = MakeCatalogApp(request);
  app->Setup(dedicated);
  const RunResult reference = dedicated.Run([&app](NodeContext& ctx) { app->Run(ctx); });

  const std::string expected = RaceStream(reference.races);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(RaceStream(outcomes[0].races), expected);
  EXPECT_EQ(RaceStream(outcomes[1].races), expected);
}

TEST(ServiceTest, PerTenantMetricsAndTraceTracks) {
  DsmService service(SmallConfig());
  service.Start();
  ASSERT_NE(service.Submit(Req("alpha", "fft", 32)), 0u);
  ASSERT_NE(service.Submit(Req("alpha", "sor", 32)), 0u);
  ASSERT_NE(service.Submit(Req("beta", "water", 64)), 0u);
  service.Drain();
  service.Stop();

  ASSERT_NE(service.metrics(), nullptr);
  EXPECT_EQ(service.metrics()->counter("tenant.alpha.completed")->value(), 2u);
  EXPECT_EQ(service.metrics()->counter("tenant.beta.completed")->value(), 1u);
  EXPECT_EQ(service.metrics()->counter("tenant.alpha.races")->value(), 0u);
  EXPECT_GT(service.metrics()->counter("tenant.beta.races")->value(), 0u);
  EXPECT_EQ(service.metrics()->counter("tenant.alpha.unhandled")->value(), 0u);
  EXPECT_EQ(service.metrics()->counter("svc.completed")->value(), 3u);
  EXPECT_EQ(service.metrics()->histogram("tenant.alpha.service_us")->count(), 2u);

  // One span per workload, on the tenant's own track.
  ASSERT_NE(service.tracer(), nullptr);
  EXPECT_EQ(service.tracer()->TotalEmitted(), 3u);
  const int alpha_track = service.TenantTrack("alpha");
  const int beta_track = service.TenantTrack("beta");
  ASSERT_GE(alpha_track, 0);
  ASSERT_GE(beta_track, 0);
  EXPECT_NE(alpha_track, beta_track);
  int alpha_spans = 0;
  int beta_spans = 0;
  for (const obs::TraceEvent& event : service.tracer()->Collected()) {
    EXPECT_EQ(event.phase, 'X');
    EXPECT_STREQ(event.cat, "svc");
    alpha_spans += event.node == alpha_track ? 1 : 0;
    beta_spans += event.node == beta_track ? 1 : 0;
  }
  EXPECT_EQ(alpha_spans, 2);
  EXPECT_EQ(beta_spans, 1);
  EXPECT_EQ(service.TenantTrack("nobody"), -1);
}

TEST(ServiceTest, QueueCapacityShedsLoad) {
  ServiceConfig config = SmallConfig();
  config.workers = 1;
  config.queue_capacity = 1;
  config.per_tenant_cap = 1;
  DsmService service(config);
  // Not started: requests stack up in the queue, so capacity must bite.
  ASSERT_NE(service.Submit(Req("alpha", "fft", 16)), 0u);
  std::string reason;
  uint64_t rejected = 0;
  for (int i = 0; i < 3; ++i) {
    rejected += service.Submit(Req("alpha", "fft", 16), &reason) == 0 ? 1 : 0;
  }
  EXPECT_GE(rejected, 2u);  // At least the clearly-over-capacity submissions.
  service.Start();
  service.Drain();
  service.Stop();
  EXPECT_EQ(service.scheduler().stats().rejected, rejected);
}

}  // namespace
}  // namespace cvm::svc
