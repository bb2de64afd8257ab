// trace_summary: offline companion to cvm_run's observability outputs.
//
// Three modes:
//   trace_summary --metrics=m.csv       per-epoch overhead table (Figure 3's
//                                       buckets), from a --metrics-out CSV
//   trace_summary --trace-json=t.json   event-name census of a --trace-json
//                                       Chrome trace file
//   trace_summary --race-explain=r.json pretty-print the causal provenance
//                                       of races from a --races-json file
//
// Examples:
//   cvm_run --app=tsp --nodes=8 --metrics-out=m.csv --trace-json=t.json
//   trace_summary --metrics=m.csv
//   trace_summary --trace-json=t.json
//   cvm_run --app=water --nodes=4 --races-json=r.json
//   trace_summary --race-explain=r.json
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/sim/cost_model.h"
#include "tools/flags.h"
#include "tools/json_mini.h"

namespace {

using namespace cvm;

int Usage() {
  std::printf(
      "usage: trace_summary --metrics=FILE      per-epoch Figure-3 overhead table\n"
      "       trace_summary --trace-json=FILE   event-name counts from a trace\n"
      "       trace_summary --race-explain=FILE causal provenance of race reports\n"
      "\n"
      "Inputs are the files written by cvm_run --metrics-out / --trace-json /\n"
      "--races-json (see docs/OBSERVABILITY.md and docs/DETECTOR.md).\n");
  return 2;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  std::string cell;
  while (std::getline(stream, cell, ',')) {
    cells.push_back(cell);
  }
  if (!line.empty() && line.back() == ',') {
    cells.emplace_back();
  }
  return cells;
}

// Per-epoch overhead table from a metrics CSV: one row per snapshot, one
// column per Figure-3 bucket (the overhead.*_ns counters each node publishes
// at barriers), plus the detection total and its share of simulated time.
int SummarizeMetrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read metrics file %s\n", path.c_str());
    return 1;
  }
  std::string line;
  if (!std::getline(in, line)) {
    std::fprintf(stderr, "error: metrics file %s is empty\n", path.c_str());
    return 1;
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  std::map<std::string, size_t> column;
  for (size_t i = 0; i < header.size(); ++i) {
    column[header[i]] = i;
  }
  // A metrics CSV always carries these two columns; their absence means the
  // file is not a cvm_run metrics file (or its header line was cut short).
  for (const char* required : {"epoch", "sim_time_ns"}) {
    if (column.find(required) == column.end()) {
      std::fprintf(stderr,
                   "error: %s is not a metrics CSV (missing '%s' column; "
                   "expected a file written by cvm_run --metrics-out)\n",
                   path.c_str(), required);
      return 1;
    }
  }

  // Figure 3's overhead buckets, excluding kNone (base work).
  std::vector<Bucket> buckets;
  std::vector<std::string> headers = {"Epoch"};
  for (int b = 0; b < kNumBuckets; ++b) {
    const Bucket bucket = static_cast<Bucket>(b);
    buckets.push_back(bucket);
    headers.emplace_back(BucketName(bucket));
  }
  headers.emplace_back("Total ms");
  headers.emplace_back("Sim ms");
  headers.emplace_back("Overhead %");

  auto cell_value = [&column](const std::vector<std::string>& cells,
                              const std::string& name) -> double {
    auto it = column.find(name);
    if (it == column.end() || it->second >= cells.size() || cells[it->second].empty()) {
      return 0;
    }
    try {
      return std::stod(cells[it->second]);
    } catch (...) {
      return 0;
    }
  };

  TablePrinter table(headers);
  size_t rows = 0;
  size_t line_number = 1;  // Header was line 1.
  double prev_sim_ns = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() < header.size()) {
      std::fprintf(stderr,
                   "error: metrics file %s is truncated at line %zu "
                   "(%zu of %zu columns)\n",
                   path.c_str(), line_number, cells.size(), header.size());
      return 1;
    }
    const double epoch = cell_value(cells, "epoch");
    const double sim_ns = cell_value(cells, "sim_time_ns");
    const double epoch_sim_ns = sim_ns - prev_sim_ns;
    prev_sim_ns = sim_ns;
    double total_ns = 0;
    std::vector<std::string> row = {std::to_string(static_cast<long long>(epoch))};
    for (Bucket bucket : buckets) {
      const double ns = cell_value(cells, BucketMetricName(bucket));
      total_ns += ns;
      row.push_back(TablePrinter::Fixed(ns / 1e6, 2));
    }
    row.push_back(TablePrinter::Fixed(total_ns / 1e6, 2));
    row.push_back(TablePrinter::Fixed(epoch_sim_ns / 1e6, 2));
    row.push_back(epoch_sim_ns > 0 ? TablePrinter::Percent(total_ns / epoch_sim_ns, 1)
                                   : std::string("-"));
    table.AddRow(std::move(row));
    ++rows;
  }
  if (rows == 0) {
    std::fprintf(stderr, "error: metrics file %s has a header but no rows\n", path.c_str());
    return 1;
  }
  std::printf("per-epoch detection overhead (Figure 3 buckets), %zu epoch(s):\n\n", rows);
  table.Print();
  std::printf("\nbucket columns and the total are summed across nodes; 'Sim ms' is the\n"
              "critical-path simulated time the epoch added.\n");

  // Detection-pipeline table: modeled shards, bitmap-round bytes (raw vs on
  // the wire after BitmapCodec), and distributed compares. Only printed when
  // the run recorded the pipeline counters (any pipeline mode emits them).
  if (column.count("net.bitmap.bytes_raw") != 0) {
    in.clear();
    in.seekg(0);
    std::getline(in, line);  // Header.
    TablePrinter pipeline_table(
        {"Epoch", "Shards", "Checks", "Raw B", "Wire B", "Saved B", "Remote cmp"});
    bool any_activity = false;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      const std::vector<std::string> cells = SplitCsvLine(line);
      const double raw = cell_value(cells, "net.bitmap.bytes_raw");
      const double wire = cell_value(cells, "net.bitmap.bytes_wire");
      const double saved = cell_value(cells, "net.bitmap.bytes_saved");
      const double remote = cell_value(cells, "race.remote.pairs_compared");
      any_activity = any_activity || raw > 0 || wire > 0 || remote > 0;
      pipeline_table.AddRow(
          {std::to_string(static_cast<long long>(cell_value(cells, "epoch"))),
           TablePrinter::Fixed(cell_value(cells, "race.shard.count"), 0),
           TablePrinter::Fixed(cell_value(cells, "race.checklist_entries"), 0),
           TablePrinter::Fixed(raw, 0), TablePrinter::Fixed(wire, 0),
           TablePrinter::Fixed(saved, 0), TablePrinter::Fixed(remote, 0)});
    }
    if (any_activity) {
      std::printf("\nper-epoch detection pipeline (see docs/DETECTOR.md):\n\n");
      pipeline_table.Print();
      std::printf("\n'Raw B' is what the bitmap round would cost uncompressed; 'Wire B' is\n"
                  "what it sent; 'Remote cmp' counts pairs compared on constituents\n"
                  "(distributed mode).\n");
    }
  }

  // Scaling table: combine-tree barrier traffic and epoch-batched detection
  // rounds. Printed only for runs that used at least one of the scaling
  // knobs (--barrier-tree / --detect-batch).
  if (column.count("net.barrier.tree.up_bytes") != 0) {
    in.clear();
    in.seekg(0);
    std::getline(in, line);  // Header.
    TablePrinter scaling_table(
        {"Epoch", "Tree up B", "Tree down B", "Fragments", "Batch rounds", "Batched ep"});
    bool any_activity = false;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      const std::vector<std::string> cells = SplitCsvLine(line);
      const double up = cell_value(cells, "net.barrier.tree.up_bytes");
      const double down = cell_value(cells, "net.barrier.tree.down_bytes");
      const double rounds = cell_value(cells, "race.batch.rounds");
      any_activity = any_activity || up > 0 || down > 0 || rounds > 0;
      scaling_table.AddRow(
          {std::to_string(static_cast<long long>(cell_value(cells, "epoch"))),
           TablePrinter::Fixed(up, 0), TablePrinter::Fixed(down, 0),
           TablePrinter::Fixed(cell_value(cells, "net.barrier.tree.fragments"), 0),
           TablePrinter::Fixed(rounds, 0),
           TablePrinter::Fixed(cell_value(cells, "race.batch.batched_epochs"), 0)});
    }
    if (any_activity) {
      std::printf("\nper-epoch barrier/detection scaling (see docs/ARCHITECTURE.md):\n\n");
      scaling_table.Print();
      std::printf("\n'Tree up/down B' is combine-tree barrier traffic; 'Batch rounds' are\n"
                  "detection flushes covering 'Batched ep' queued epochs.\n");
    }
  }
  return 0;
}

// Event-name census: counts `"name":"..."` occurrences in a Chrome trace
// JSON. Metadata records ('M') name process/thread tracks, not events, so
// "process_name"/"thread_name" are excluded.
int SummarizeTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read trace file %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::map<std::string, uint64_t> counts;
  const std::string key = "\"name\":\"";
  const std::string args_prefix = "\"args\":{";
  for (size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1)) {
    // Skip track-naming metadata ('M' records) and their args payloads
    // ({"args":{"name":"node 3"}}) — those name tracks, not events.
    if (pos >= args_prefix.size() &&
        text.compare(pos - args_prefix.size(), args_prefix.size(), args_prefix) == 0) {
      continue;
    }
    const size_t begin = pos + key.size();
    const size_t end = text.find('"', begin);
    if (end == std::string::npos) {
      break;
    }
    const std::string name = text.substr(begin, end - begin);
    if (name != "process_name" && name != "thread_name") {
      ++counts[name];
    }
  }
  if (counts.empty()) {
    std::fprintf(stderr, "error: no trace events found in %s\n", path.c_str());
    return 1;
  }
  uint64_t total = 0;
  TablePrinter table({"Event", "Count"});
  for (const auto& [name, count] : counts) {
    table.AddRow({name, TablePrinter::WithThousands(count)});
    total += count;
  }
  table.AddRow({"total", TablePrinter::WithThousands(total)});
  std::printf("%zu distinct event name(s) in %s:\n\n", counts.size(), path.c_str());
  table.Print();
  return 0;
}

// Pretty-prints the causal provenance of each race in a --races-json file:
// which two intervals collided, their version vectors, the sync ops that
// failed to order them, and the barrier check that exposed the race.
int ExplainRaces(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read races file %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  tools::JsonValue root;
  std::string error;
  if (!tools::JsonParser::Parse(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "error: %s: malformed races JSON: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (!root.is_array()) {
    std::fprintf(stderr, "error: %s: expected a JSON array of race reports\n", path.c_str());
    return 1;
  }
  if (root.array.empty()) {
    std::printf("no data races in %s\n", path.c_str());
    return 0;
  }
  std::printf("%zu race report(s) in %s:\n", root.array.size(), path.c_str());
  for (size_t i = 0; i < root.array.size(); ++i) {
    const tools::JsonValue& r = root.array[i];
    const std::string symbol = r.at("symbol").str_or("");
    std::printf("\n[%zu] %s race at %s (page %lld word %lld, epoch %lld)\n", i + 1,
                r.at("kind").str_or("?").c_str(),
                symbol.empty() ? "<unsymbolized>" : symbol.c_str(),
                static_cast<long long>(r.at("page").num_or(-1)),
                static_cast<long long>(r.at("word").num_or(0)),
                static_cast<long long>(r.at("epoch").num_or(-1)));
    const tools::JsonValue& chain = r.at("chain");
    if (!chain.is_array() || chain.array.empty()) {
      std::printf("    (no provenance recorded)\n");
      continue;
    }
    for (const tools::JsonValue& line : chain.array) {
      std::printf("    %s\n", line.str_or("").c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }
  for (const std::string& key :
       flags.UnknownKeys({"metrics", "trace-json", "race-explain", "help"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return Usage();
  }
  if (flags.GetBool("help", false) ||
      (!flags.Has("metrics") && !flags.Has("trace-json") && !flags.Has("race-explain"))) {
    return Usage();
  }
  int rc = 0;
  if (flags.Has("metrics")) {
    rc = SummarizeMetrics(flags.GetString("metrics", ""));
  }
  if (rc == 0 && flags.Has("trace-json")) {
    rc = SummarizeTrace(flags.GetString("trace-json", ""));
  }
  if (rc == 0 && flags.Has("race-explain")) {
    rc = ExplainRaces(flags.GetString("race-explain", ""));
  }
  return rc;
}
