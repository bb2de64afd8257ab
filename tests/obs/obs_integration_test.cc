// End-to-end observability tests: a real DSM run with tracing + metrics
// enabled must produce events from every layer on every node's track and one
// metrics row per barrier epoch; with observability off, nothing is
// allocated.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/lu.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions ObsOptions(int nodes, bool trace, bool metrics) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 256;
  options.max_shared_bytes = 64 * 1024;
  options.trace.trace_enabled = trace;
  options.trace.metrics_enabled = metrics;
  return options;
}

// A small multi-epoch workload exercising pages, locks, and barriers — with
// one deliberate unsynchronized write pair so the detector path runs too.
void BusyApp(NodeContext& ctx, SharedArray<int32_t>& data, SharedVar<int32_t>& total) {
  const int p = ctx.num_nodes();
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 16; ++i) {
      data.Set(ctx, ctx.id() * 16 + i, ctx.id() + epoch + i);
    }
    ctx.Lock(0);
    total.Set(ctx, total.Get(ctx) + 1);
    ctx.Unlock(0);
    ctx.Barrier();
    const int next = (ctx.id() + 1) % p;
    int sum = 0;
    for (int i = 0; i < 16; ++i) {
      sum += data.Get(ctx, next * 16 + i);
    }
    EXPECT_GE(sum, 0);
    ctx.Barrier();
  }
  // Racy epoch: every node writes word 0 with no synchronization.
  data.Set(ctx, 0, ctx.id());
}

// The metrics CSV as named columns of per-epoch values.
std::map<std::string, std::vector<double>> CsvColumns(const std::string& csv) {
  std::stringstream stream(csv);
  std::string line;
  std::vector<std::string> header;
  std::getline(stream, line);
  std::stringstream header_cells(line);
  for (std::string cell; std::getline(header_cells, cell, ',');) {
    header.push_back(cell);
  }
  std::map<std::string, std::vector<double>> columns;
  for (const std::string& name : header) {
    columns[name];
  }
  while (std::getline(stream, line)) {
    std::stringstream cells(line);
    std::string cell;
    for (size_t i = 0; i < header.size() && std::getline(cells, cell, ','); ++i) {
      columns[header[i]].push_back(std::stod(cell));
    }
  }
  return columns;
}

double ColumnSum(const std::map<std::string, std::vector<double>>& columns,
                 const std::string& name) {
  return std::accumulate(columns.at(name).begin(), columns.at(name).end(), 0.0);
}

TEST(ObsIntegrationTest, TraceCoversAllLayersAndAllNodeTracks) {
  const int kNodes = 8;
  DsmOptions options = ObsOptions(kNodes, /*trace=*/true, /*metrics=*/true);
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 16 * kNodes);
  auto total = SharedVar<int32_t>::Alloc(system, "total");
  RunResult result =
      system.Run([&](NodeContext& ctx) { BusyApp(ctx, data, total); });
  ASSERT_FALSE(result.races.empty());  // The deliberate race was detected.

  ASSERT_NE(system.tracer(), nullptr);
  const std::vector<obs::TraceEvent> events = system.tracer()->Collected();
  ASSERT_FALSE(events.empty());

  std::set<std::string> names;
  std::set<NodeId> nodes_seen;
  for (const obs::TraceEvent& e : events) {
    names.insert(e.name);
    nodes_seen.insert(e.node);
  }
  // The acceptance bar: at least 6 distinct event names across all 8 tracks.
  EXPECT_GE(names.size(), 6u) << "only " << names.size() << " distinct names";
  EXPECT_EQ(nodes_seen.size(), static_cast<size_t>(kNodes));

  // Every instrumented layer contributes.
  for (const char* expected :
       {"msg.send", "msg.recv", "page.fault.write", "page.fetch", "interval.open",
        "interval.close", "lock.acquire", "lock.release", "barrier", "detector.overlap",
        "race.report"}) {
    EXPECT_TRUE(names.count(expected)) << "missing event " << expected;
  }
  EXPECT_EQ(system.tracer()->TotalDropped(), 0u);
}

TEST(ObsIntegrationTest, MetricsRowsMatchBarrierCount) {
  DsmOptions options = ObsOptions(4, /*trace=*/false, /*metrics=*/true);
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 16 * 4);
  auto total = SharedVar<int32_t>::Alloc(system, "total");
  RunResult result =
      system.Run([&](NodeContext& ctx) { BusyApp(ctx, data, total); });

  EXPECT_EQ(system.tracer(), nullptr);  // Tracing was not requested.
  ASSERT_NE(system.metrics(), nullptr);
  EXPECT_EQ(system.metrics()->NumRows(), result.barriers);
  EXPECT_GT(result.barriers, 0u);

  // Cross-check a few counters against the run's own accounting.
  EXPECT_EQ(system.metrics()->counter("dsm.barriers")->value(),
            result.barriers * static_cast<uint64_t>(options.num_nodes));
  EXPECT_EQ(system.metrics()->counter("dsm.page_faults")->value(), result.page_faults);
  EXPECT_EQ(system.metrics()->counter("net.messages")->value(), result.net.messages);
  EXPECT_EQ(system.metrics()->counter("net.bytes")->value(), result.net.bytes);
  EXPECT_EQ(system.metrics()->counter("dsm.intervals")->value(), result.intervals_total);

  // Published overhead matches the timing buckets (published at the last
  // barrier; integer truncation loses < 1ns per bucket per node per epoch).
  const uint64_t published =
      system.metrics()->counter(BucketMetricName(Bucket::kIntervals))->value();
  EXPECT_GT(published, 0u);
}

TEST(ObsIntegrationTest, MetricsIntervalThinsSnapshots) {
  DsmOptions options = ObsOptions(4, /*trace=*/false, /*metrics=*/true);
  options.trace.metrics_interval = 2;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 16 * 4);
  auto total = SharedVar<int32_t>::Alloc(system, "total");
  RunResult result =
      system.Run([&](NodeContext& ctx) { BusyApp(ctx, data, total); });
  // Every second epoch, plus the final barrier's, which holds the racy epoch.
  EXPECT_EQ(system.metrics()->NumRows(), (result.barriers + 1) / 2);
  const auto columns = CsvColumns(system.metrics()->ToCsv());
  ASSERT_FALSE(columns.at("epoch").empty());
  EXPECT_EQ(columns.at("epoch").back(), static_cast<double>(result.barriers - 1));
  EXPECT_EQ(ColumnSum(columns, "net.messages"), static_cast<double>(result.net.messages));
}

TEST(ObsIntegrationTest, OverheadRowsSumToTheRunsBuckets) {
  // Every node publishes its integer-ps buckets as the floor of the run-wide
  // total, and once more when the run ends (a worker still charges CVM Mods
  // for its final release's read notices), so each overhead.*_ns column
  // sums to the run's bucket floored to ns, with nothing lost in between.
  DsmOptions options;
  options.num_nodes = 8;
  options.page_size = 4096;
  options.max_shared_bytes = 1ull << 20;
  options.protocol = ProtocolKind::kMultiWriterHomeLrc;
  options.trace.metrics_enabled = true;
  LuApp::Params params;
  params.n = 128;
  params.block = 16;
  LuApp app(params);
  DsmSystem system(options);
  app.Setup(system);
  const RunResult result = system.Run([&app](NodeContext& ctx) { app.Run(ctx); });
  ASSERT_TRUE(app.Verify());
  const auto columns = CsvColumns(system.metrics()->ToCsv());
  for (int b = 0; b < kNumBuckets; ++b) {
    const Bucket bucket = static_cast<Bucket>(b);
    SCOPED_TRACE(BucketMetricName(bucket));
    const double run_ns = result.overhead_ns[b];
    EXPECT_GT(run_ns, 0.0);
    EXPECT_EQ(ColumnSum(columns, BucketMetricName(bucket)), std::floor(run_ns));
  }
}

TEST(ObsIntegrationTest, EveryRowCountsOneBarrierEntryPerNode) {
  // A node enters barrier e+1 only after barrier e's release, and the master
  // (or tree root) takes row e before it sends the releases.
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "flat");
    DsmOptions options = ObsOptions(4, /*trace=*/false, /*metrics=*/true);
    options.barrier_tree = tree;
    options.barrier_fanout = 2;
    DsmSystem system(options);
    auto data = SharedArray<int32_t>::Alloc(system, "data", 16 * 4);
    auto total = SharedVar<int32_t>::Alloc(system, "total");
    RunResult result =
        system.Run([&](NodeContext& ctx) { BusyApp(ctx, data, total); });
    const auto columns = CsvColumns(system.metrics()->ToCsv());
    const std::vector<double>& barriers = columns.at("dsm.barriers");
    ASSERT_EQ(barriers.size(), result.barriers);
    for (size_t row = 0; row < barriers.size(); ++row) {
      EXPECT_EQ(barriers[row], options.num_nodes) << "row " << row;
    }
  }
}

TEST(ObsIntegrationTest, DisabledObservabilityAllocatesNothing) {
  DsmOptions options = ObsOptions(4, /*trace=*/false, /*metrics=*/false);
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 16 * 4);
  auto total = SharedVar<int32_t>::Alloc(system, "total");
  RunResult result =
      system.Run([&](NodeContext& ctx) { BusyApp(ctx, data, total); });
  EXPECT_EQ(system.tracer(), nullptr);
  EXPECT_EQ(system.metrics(), nullptr);
  ASSERT_FALSE(result.races.empty());
}

TEST(ObsIntegrationTest, SimulatedTimeIsUnchangedByObservability) {
  // Observability must not perturb the deterministic cost model: the same
  // app with and without tracing lands on the identical simulated time.
  // Causal flow tracing is the one deliberate exception — it puts a real
  // TraceContext on the modeled wire (tests/obs/flow_test.cc covers it) —
  // so this invariant is checked with flow events off.
  // Lock-free, and each node's chunk is exactly one 256-byte page, so no
  // ownership churn: every simulated cost is independent of the real-time
  // interleaving and the total must be bit-identical across passes.
  constexpr int kWordsPerPage = 64;  // 256-byte pages / 4-byte words.
  double sim_times[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    DsmOptions options = ObsOptions(4, /*trace=*/pass == 1, /*metrics=*/pass == 1);
    options.trace.flow_events = false;
    DsmSystem system(options);
    auto data = SharedArray<int32_t>::Alloc(system, "data", kWordsPerPage * 4);
    RunResult result = system.Run([&](NodeContext& ctx) {
      for (int epoch = 0; epoch < 3; ++epoch) {
        for (int i = 0; i < kWordsPerPage; ++i) {
          data.Set(ctx, ctx.id() * kWordsPerPage + i, epoch + i);
        }
        ctx.Barrier();
        const int next = (ctx.id() + 1) % ctx.num_nodes();
        for (int i = 0; i < kWordsPerPage; ++i) {
          EXPECT_EQ(data.Get(ctx, next * kWordsPerPage + i), epoch + i);
        }
        ctx.Barrier();
      }
    });
    sim_times[pass] = result.sim_time_ns;
  }
  EXPECT_EQ(sim_times[0], sim_times[1]);
}

}  // namespace
}  // namespace cvm
