// Unit tests for the metrics registry: find-or-create semantics, histogram
// bucketing, per-epoch snapshot rows, and the delta semantics of the CSV and
// JSON exports.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace cvm::obs {
namespace {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  std::string cell;
  while (std::getline(stream, cell, ',')) {
    cells.push_back(cell);
  }
  return cells;
}

std::vector<std::vector<std::string>> ParseCsv(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::stringstream stream(csv);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) {
      rows.push_back(SplitLine(line));
    }
  }
  return rows;
}

size_t ColumnIndex(const std::vector<std::string>& header, const std::string& name) {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) {
      return i;
    }
  }
  ADD_FAILURE() << "missing column " << name;
  return 0;
}

TEST(MetricsTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("y"), a);
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsTest, HistogramBucketsAreLogScale) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);   // v == 0
  EXPECT_EQ(h.bucket(1), 1u);   // v == 1
  EXPECT_EQ(h.bucket(2), 2u);   // v in [2, 4)
  EXPECT_EQ(h.bucket(11), 1u);  // v in [1024, 2048)
}

TEST(MetricsTest, OneRowPerSnapshot) {
  MetricsRegistry registry;
  registry.counter("c")->Add(1);
  for (int epoch = 0; epoch < 5; ++epoch) {
    registry.SnapshotEpoch(epoch, 1000.0 * (epoch + 1));
  }
  EXPECT_EQ(registry.NumRows(), 5u);
  const auto rows = ParseCsv(registry.ToCsv());
  ASSERT_EQ(rows.size(), 6u);  // Header + 5 rows.
}

TEST(MetricsTest, CsvEmitsPerEpochCounterDeltas) {
  MetricsRegistry registry;
  Counter* c = registry.counter("net.messages");
  Gauge* g = registry.gauge("depth");

  c->Add(10);
  g->Set(7);
  registry.SnapshotEpoch(0, 100);
  c->Add(5);
  g->Set(3);
  registry.SnapshotEpoch(1, 250);

  const auto rows = ParseCsv(registry.ToCsv());
  ASSERT_EQ(rows.size(), 3u);
  const auto& header = rows[0];
  const size_t epoch_col = ColumnIndex(header, "epoch");
  const size_t sim_col = ColumnIndex(header, "sim_time_ns");
  const size_t c_col = ColumnIndex(header, "net.messages");
  const size_t g_col = ColumnIndex(header, "depth");

  EXPECT_EQ(rows[1][epoch_col], "0");
  EXPECT_EQ(rows[1][sim_col], "100");
  EXPECT_EQ(rows[1][c_col], "10");  // First row: delta from zero.
  EXPECT_EQ(rows[1][g_col], "7");   // Gauges are point-in-time.
  EXPECT_EQ(rows[2][epoch_col], "1");
  EXPECT_EQ(rows[2][c_col], "5");   // Delta, not the cumulative 15.
  EXPECT_EQ(rows[2][g_col], "3");
}

TEST(MetricsTest, HistogramColumnsAreCountSumDeltasAndRunningMax) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  h->Observe(100);
  h->Observe(300);
  registry.SnapshotEpoch(0, 1);
  h->Observe(50);
  registry.SnapshotEpoch(1, 2);

  const auto rows = ParseCsv(registry.ToCsv());
  ASSERT_EQ(rows.size(), 3u);
  const auto& header = rows[0];
  const size_t count_col = ColumnIndex(header, "lat.count");
  const size_t sum_col = ColumnIndex(header, "lat.sum");
  const size_t max_col = ColumnIndex(header, "lat.max");
  EXPECT_EQ(rows[1][count_col], "2");
  EXPECT_EQ(rows[1][sum_col], "400");
  EXPECT_EQ(rows[1][max_col], "300");
  EXPECT_EQ(rows[2][count_col], "1");
  EXPECT_EQ(rows[2][sum_col], "50");
  EXPECT_EQ(rows[2][max_col], "300");  // Max is cumulative, not a delta.
}

TEST(MetricsTest, MetricCreatedMidRunGetsColumnWithZerosBefore) {
  MetricsRegistry registry;
  registry.counter("early")->Add(1);
  registry.SnapshotEpoch(0, 1);
  registry.counter("late")->Add(4);
  registry.SnapshotEpoch(1, 2);

  const auto rows = ParseCsv(registry.ToCsv());
  ASSERT_EQ(rows.size(), 3u);
  const size_t late_col = ColumnIndex(rows[0], "late");
  EXPECT_EQ(rows[1][late_col], "0");
  EXPECT_EQ(rows[2][late_col], "4");
}

TEST(MetricsTest, JsonHasOneObjectPerEpoch) {
  MetricsRegistry registry;
  registry.counter("c")->Add(2);
  registry.SnapshotEpoch(0, 10);
  registry.counter("c")->Add(1);
  registry.SnapshotEpoch(1, 20);
  const std::string json = registry.ToJson();
  size_t count = 0;
  for (size_t pos = json.find("\"epoch\":"); pos != std::string::npos;
       pos = json.find("\"epoch\":", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
}

}  // namespace
}  // namespace cvm::obs
