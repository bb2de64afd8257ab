// Tenant-isolation chaos tests (the tentpole guarantee of docs/SERVICE.md):
// one tenant running under an aggressive fault profile — healing partitions,
// stress (loss + dups + corruption + stalls) — must leave every *other*
// tenant's race reports byte-identical to its fault-free dedicated baseline,
// with zero unhandled protocol messages anywhere in the service.
//
// The guarantee holds by construction (each request gets its own fabric), and
// this test is the regression net around that construction.
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

constexpr int kNodes = 4;
constexpr int64_t kFftSize = 32;
constexpr int64_t kWaterSize = 64;

std::string RaceStream(const std::vector<RaceReport>& races) {
  std::ostringstream out;
  for (const RaceReport& race : races) {
    out << race.ToString() << "\n";
  }
  return out.str();
}

// The report stream a dedicated, fault-free process would print for the app.
std::string DedicatedBaseline(const std::string& app, int64_t size) {
  DsmOptions options;
  options.num_nodes = kNodes;
  options.max_shared_bytes = 16ull << 20;
  CatalogRequest request;
  request.app = app;
  request.size = size;
  auto instance = MakeCatalogApp(request);
  DsmSystem system(options);
  instance->Setup(system);
  RunResult result = system.Run([&instance](NodeContext& ctx) { instance->Run(ctx); });
  EXPECT_TRUE(instance->Verify()) << app;
  return RaceStream(result.races);
}

WorkloadRequest Req(const std::string& tenant, const std::string& app, int64_t size,
                    fault::FaultProfile profile = fault::FaultProfile::kOff) {
  WorkloadRequest request;
  request.tenant = tenant;
  request.app = app;
  request.size = size;
  request.fault_profile = profile;
  return request;
}

class IsolationTest : public ::testing::TestWithParam<fault::FaultProfile> {};

TEST_P(IsolationTest, ChaosTenantCannotPerturbOthers) {
  const fault::FaultProfile chaos_profile = GetParam();
  const std::string fft_baseline = DedicatedBaseline("fft", kFftSize);
  const std::string water_baseline = DedicatedBaseline("water", kWaterSize);
  ASSERT_TRUE(fft_baseline.empty());      // fft is race-free...
  ASSERT_FALSE(water_baseline.empty());   // ...water carries the seeded bug.

  ServiceConfig config;
  config.workers = 2;
  config.nodes = kNodes;
  config.max_shared_bytes = 16ull << 20;
  config.per_tenant_cap = 2;
  DsmService service(config);
  service.Start();

  // Interleave the chaos tenant's faulty workloads with the clean tenants'
  // so faulty and clean runs genuinely alternate on the same workers.
  for (int round = 0; round < 2; ++round) {
    ASSERT_NE(service.Submit(Req("alpha", "fft", kFftSize)), 0u);
    ASSERT_NE(service.Submit(Req("chaos", "water", kWaterSize, chaos_profile)), 0u);
    ASSERT_NE(service.Submit(Req("beta", "water", kWaterSize)), 0u);
    ASSERT_NE(service.Submit(Req("chaos", "fft", kFftSize, chaos_profile)), 0u);
    service.Drain();
  }
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 8u);
  bool chaos_saw_faults = false;
  for (const WorkloadOutcome& outcome : outcomes) {
    // The service-wide invariant: no unhandled protocol messages anywhere,
    // chaos tenant included — reliable transport heals every injected fault.
    EXPECT_EQ(outcome.dispatch_unhandled, 0u)
        << outcome.request.tenant << "/" << outcome.request.app;
    EXPECT_TRUE(outcome.verified)
        << outcome.request.tenant << "/" << outcome.request.app;

    if (outcome.request.tenant == "chaos") {
      chaos_saw_faults = chaos_saw_faults || outcome.fault.data_frames > 0;
      continue;
    }
    // Clean tenants: fault machinery never touched their runs...
    EXPECT_EQ(outcome.fault.data_frames, 0u);
    // ...and their reports are byte-identical to the dedicated baseline.
    const std::string& expected =
        outcome.request.app == "fft" ? fft_baseline : water_baseline;
    EXPECT_EQ(RaceStream(outcome.races), expected)
        << outcome.request.tenant << "/" << outcome.request.app;
  }
  // The chaos tenant's plan actually engaged (otherwise this test is vacuous).
  EXPECT_TRUE(chaos_saw_faults);
}

INSTANTIATE_TEST_SUITE_P(Profiles, IsolationTest,
                         ::testing::Values(fault::FaultProfile::kPartition,
                                           fault::FaultProfile::kStress),
                         [](const ::testing::TestParamInfo<fault::FaultProfile>& param) {
                           return std::string(fault::ProfileName(param.param));
                         });

TEST(IsolationTest, ChaosReportsNameOnlyTheirOwnAllocations) {
  // Even the faulty tenant's own reports name only its own shared data:
  // every report under stress faults on water is symbolized to one of
  // water's allocations, never to a raw unsymbolized address.
  std::set<std::string> water_symbols;
  {
    DsmOptions options;
    options.num_nodes = kNodes;
    options.max_shared_bytes = 16ull << 20;
    DsmSystem system(options);
    auto water = MakeCatalogApp(CatalogRequest{"water", kWaterSize});
    water->Setup(system);
    for (const Symbol& symbol : system.segment().symbols()) {
      water_symbols.insert(symbol.name);
    }
  }
  ASSERT_FALSE(water_symbols.empty());

  ServiceConfig config;
  config.workers = 1;
  config.nodes = kNodes;
  config.max_shared_bytes = 16ull << 20;
  DsmService service(config);
  service.Start();
  ASSERT_NE(service.Submit(Req("chaos", "water", kWaterSize, fault::FaultProfile::kStress)),
            0u);
  service.Drain();
  service.Stop();

  const std::vector<WorkloadOutcome> outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].verified);
  EXPECT_FALSE(outcomes[0].races.empty());
  for (const RaceReport& race : outcomes[0].races) {
    ASSERT_FALSE(race.symbol.empty()) << race.ToString();
    // "name" or "name+offset"; an address outside every allocation would
    // symbolize as a raw "0x..." instead.
    const std::string name = race.symbol.substr(0, race.symbol.find('+'));
    EXPECT_EQ(water_symbols.count(name), 1u) << race.ToString();
  }
}

}  // namespace
}  // namespace cvm::svc
