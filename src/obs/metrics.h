// Metrics registry: named counters, gauges, and log2-bucketed histograms,
// snapshotted into a per-barrier-epoch time series and exported as CSV or
// JSON. Metric objects are created on first use and never move, so hot
// paths resolve a pointer once and then update with relaxed atomics.
#ifndef CVM_OBS_METRICS_H_
#define CVM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace cvm::obs {

class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-scale histogram: observation v lands in bucket bit_width(v), i.e.
// bucket b covers [2^(b-1), 2^b). Suited to long-tailed distributions like
// message latency or diff size.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // Bucket 0 holds v == 0.

  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int b) const { return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned pointers are stable for the registry lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Appends one row holding the current (cumulative) value of every metric.
  // Called once per metrics interval at the barrier master.
  void SnapshotEpoch(EpochId epoch, double sim_time_ns);
  // Re-reads every metric into the last row, keeping its epoch and times:
  // called once the run has stopped, it folds what happened after the last
  // snapshot into that row. No-op without rows.
  void RefreshLastRow();

  size_t NumRows() const;

  // Per-epoch table. Counter and histogram count/sum columns are deltas
  // between consecutive snapshots (per-epoch values); gauges and histogram
  // max are the value at snapshot time.
  std::string ToCsv() const;
  std::string ToJson() const;
  bool WriteCsv(const std::string& path) const;
  bool WriteJson(const std::string& path) const;

 private:
  struct HistSnap {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
  };
  struct Row {
    EpochId epoch = -1;
    double sim_time_ns = 0;
    uint64_t wall_time_ns = 0;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistSnap> histograms;
  };

  // Reads every metric's current value into `row`.
  void ReadValuesLocked(Row& row) const;

  // Column layout shared by the CSV and JSON emitters: one emitted row per
  // snapshot with per-epoch deltas already applied.
  std::vector<std::string> ColumnNamesLocked() const;
  std::vector<std::vector<double>> DeltaTableLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Row> rows_;
  const std::chrono::steady_clock::time_point origin_;
};

}  // namespace cvm::obs

#endif  // CVM_OBS_METRICS_H_
