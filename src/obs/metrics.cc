#include "src/obs/metrics.h"

#include <bit>
#include <cstdio>

namespace cvm::obs {

void Histogram::Observe(uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  buckets_[static_cast<size_t>(std::bit_width(v))].fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry() : origin_(std::chrono::steady_clock::now()) {}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void MetricsRegistry::SnapshotEpoch(EpochId epoch, double sim_time_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Row row;
  row.epoch = epoch;
  row.sim_time_ns = sim_time_ns;
  row.wall_time_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           origin_)
          .count());
  ReadValuesLocked(row);
  rows_.push_back(std::move(row));
}

void MetricsRegistry::RefreshLastRow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rows_.empty()) {
    ReadValuesLocked(rows_.back());
  }
}

void MetricsRegistry::ReadValuesLocked(Row& row) const {
  for (const auto& [name, c] : counters_) {
    row.counters[name] = c->value();
  }
  for (const auto& [name, g] : gauges_) {
    row.gauges[name] = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    row.histograms[name] = HistSnap{h->count(), h->sum(), h->max()};
  }
}

size_t MetricsRegistry::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

std::vector<std::string> MetricsRegistry::ColumnNamesLocked() const {
  // Union across rows: metrics created mid-run appear in later rows only.
  std::map<std::string, int> seen;  // name -> 0 counter, 1 gauge, 2 histogram
  for (const Row& row : rows_) {
    for (const auto& [name, v] : row.counters) {
      (void)v;
      seen.emplace(name, 0);
    }
    for (const auto& [name, v] : row.gauges) {
      (void)v;
      seen.emplace(name, 1);
    }
    for (const auto& [name, v] : row.histograms) {
      (void)v;
      seen.emplace(name, 2);
    }
  }
  std::vector<std::string> columns = {"epoch", "sim_time_ns", "wall_time_ns"};
  for (const auto& [name, kind] : seen) {
    if (kind == 0 || kind == 1) {
      columns.push_back(name);
    } else {
      columns.push_back(name + ".count");
      columns.push_back(name + ".sum");
      columns.push_back(name + ".max");
    }
  }
  return columns;
}

std::vector<std::vector<double>> MetricsRegistry::DeltaTableLocked() const {
  const std::vector<std::string> columns = ColumnNamesLocked();
  std::vector<std::vector<double>> table;
  table.reserve(rows_.size());
  const Row* prev = nullptr;
  for (const Row& row : rows_) {
    std::vector<double> out;
    out.reserve(columns.size());
    for (const std::string& column : columns) {
      if (column == "epoch") {
        out.push_back(static_cast<double>(row.epoch));
      } else if (column == "sim_time_ns") {
        out.push_back(row.sim_time_ns);
      } else if (column == "wall_time_ns") {
        out.push_back(static_cast<double>(row.wall_time_ns));
      } else if (auto c = row.counters.find(column); c != row.counters.end()) {
        uint64_t base = 0;
        if (prev != nullptr) {
          if (auto p = prev->counters.find(column); p != prev->counters.end()) {
            base = p->second;
          }
        }
        out.push_back(static_cast<double>(c->second - base));
      } else if (auto g = row.gauges.find(column); g != row.gauges.end()) {
        out.push_back(static_cast<double>(g->second));
      } else {
        // Histogram sub-column "name.count|sum|max".
        const size_t dot = column.rfind('.');
        const std::string base_name = column.substr(0, dot);
        const std::string field = column.substr(dot + 1);
        auto h = row.histograms.find(base_name);
        if (h == row.histograms.end()) {
          out.push_back(0);
          continue;
        }
        HistSnap prev_snap;
        if (prev != nullptr) {
          if (auto p = prev->histograms.find(base_name); p != prev->histograms.end()) {
            prev_snap = p->second;
          }
        }
        if (field == "count") {
          out.push_back(static_cast<double>(h->second.count - prev_snap.count));
        } else if (field == "sum") {
          out.push_back(static_cast<double>(h->second.sum - prev_snap.sum));
        } else {
          out.push_back(static_cast<double>(h->second.max));
        }
      }
    }
    table.push_back(std::move(out));
    prev = &row;
  }
  return table;
}

namespace {

std::string FormatNumber(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

std::string MetricsRegistry::ToCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::string> columns = ColumnNamesLocked();
  std::string csv;
  for (size_t i = 0; i < columns.size(); ++i) {
    csv += columns[i];
    csv += i + 1 < columns.size() ? "," : "\n";
  }
  for (const std::vector<double>& row : DeltaTableLocked()) {
    for (size_t i = 0; i < row.size(); ++i) {
      csv += FormatNumber(row[i]);
      csv += i + 1 < row.size() ? "," : "\n";
    }
  }
  return csv;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::string> columns = ColumnNamesLocked();
  const std::vector<std::vector<double>> table = DeltaTableLocked();
  std::string json = "{\"epochs\":[\n";
  for (size_t r = 0; r < table.size(); ++r) {
    json += "{";
    for (size_t i = 0; i < columns.size(); ++i) {
      json += "\"" + columns[i] + "\":" + FormatNumber(table[r][i]);
      if (i + 1 < columns.size()) {
        json += ",";
      }
    }
    json += r + 1 < table.size() ? "},\n" : "}\n";
  }
  json += "]}\n";
  return json;
}

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool MetricsRegistry::WriteCsv(const std::string& path) const { return WriteFile(path, ToCsv()); }

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace cvm::obs
