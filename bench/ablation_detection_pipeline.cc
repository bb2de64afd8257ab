// Ablation: the barrier-time detection pipeline (§4 step 5, §6.2).
//
// Two configurations of the same check, both producing the same races:
//   serial       — the paper's prototype: master builds the check list alone,
//                  fetches full-page bitmaps, compares after the round ends.
//   distributed  — the master's check-list build is charged as parallel
//                  shards, and constituent nodes compare the pairs they own
//                  and ship back reports plus compressed bitmaps (BitmapCodec).
//
// The comparison metric is the master's simulated time inside the barrier
// check (PipelineStats::detect_ns) and the bitmap-round bytes — NOT total
// sim time, which is schedule-dependent (page-ownership migration varies
// run to run). Every cell is appended to BENCH_detector.json.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace cvm {
namespace {

struct ModeSpec {
  const char* name;
  DetectionPipeline pipeline;
  bool compress;
};

constexpr ModeSpec kModes[] = {
    {"serial", DetectionPipeline::kSerial, false},
    {"distributed", DetectionPipeline::kDistributed, true},
};

struct Cell {
  std::string app;
  std::string mode;
  int procs = 0;
  bool compress = false;
  uint64_t detect_epochs = 0;
  double detect_ns_per_epoch = 0;
  double bytes_raw_per_epoch = 0;
  double bytes_wire_per_epoch = 0;
  uint64_t shards = 0;
  uint64_t remote_pairs = 0;
  uint64_t remote_reports = 0;
  size_t races = 0;
  bool exact_match = false;       // Full report stream identical to serial.
  bool structural_match = false;  // Same (kind, symbol) race set as serial.
};

// The full report stream, order-preserving: byte-identical across modes for
// the deterministic apps (Water, FFT, SOR).
std::string ExactKey(const RunResult& result) {
  std::string key;
  for (const RaceReport& report : result.races) {
    key += report.ToString();
    key += '\n';
  }
  return key;
}

// Order- and word-insensitive: TSP's branch-and-bound prunes differently run
// to run, so only the set of racy (kind, symbol) sites is stable.
std::set<std::string> StructuralKey(const RunResult& result) {
  std::set<std::string> key;
  for (const RaceReport& report : result.races) {
    key.insert(std::string(report.kind == RaceKind::kWriteWrite ? "WW:" : "RW:") +
               report.symbol);
  }
  return key;
}

bool WriteDetectorJson(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"app\": \"%s\", \"mode\": \"%s\", \"procs\": %d, \"compress\": %s, "
        "\"detect_epochs\": %llu, \"detect_ns_per_epoch\": %.1f, "
        "\"bitmap_bytes_raw_per_epoch\": %.1f, \"bitmap_bytes_wire_per_epoch\": %.1f, "
        "\"shards\": %llu, "
        "\"remote_pairs_compared\": %llu, \"remote_reports\": %llu, \"races\": %zu, "
        "\"reports_exact_match\": %s, \"reports_structural_match\": %s}%s\n",
        c.app.c_str(), c.mode.c_str(), c.procs, c.compress ? "true" : "false",
        static_cast<unsigned long long>(c.detect_epochs), c.detect_ns_per_epoch,
        c.bytes_raw_per_epoch, c.bytes_wire_per_epoch,
        static_cast<unsigned long long>(c.shards),
        static_cast<unsigned long long>(c.remote_pairs),
        static_cast<unsigned long long>(c.remote_reports), c.races,
        c.exact_match ? "true" : "false", c.structural_match ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// Cut-down inputs so the CI smoke step finishes in seconds: two compute
// epochs per app, Water and FFT only (the acceptance pair).
std::vector<bench::NamedApp> SmokeApps() {
  std::vector<bench::NamedApp> apps;
  FftApp::Params fft;
  fft.rows = 64;
  fft.cols = 64;
  apps.push_back({"FFT", [fft] { return std::make_unique<FftApp>(fft); }});
  WaterApp::Params water;
  water.molecules = 64;
  water.iters = 2;
  water.page_size = bench::kPageSize;
  apps.push_back({"Water", [water] { return std::make_unique<WaterApp>(water); }});
  return apps;
}

}  // namespace
}  // namespace cvm

int main(int argc, char** argv) {
  using namespace cvm;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const int procs = 8;
  std::printf("=== Ablation: detection pipeline (serial vs distributed) ===\n");

  TablePrinter table(
      {"App", "Mode", "Detect us/epoch", "Raw B/epoch", "Wire B/epoch", "Races", "Reports"});
  std::vector<Cell> cells;
  bool reports_ok = true;
  const std::vector<bench::NamedApp> apps = smoke ? SmokeApps() : bench::PaperApps();
  for (const bench::NamedApp& app : apps) {
    std::string serial_exact;
    std::set<std::string> serial_structural;
    for (const ModeSpec& mode : kModes) {
      DsmOptions options = bench::PaperOptions(procs);
      options.detection_pipeline = mode.pipeline;
      options.compress_bitmaps = mode.compress;
      WorkloadResult result = RunWorkloadDetectOnly(app.factory, options);

      Cell cell;
      cell.app = result.app_name;
      cell.mode = mode.name;
      cell.procs = procs;
      cell.compress = mode.compress;
      const PipelineStats& p = result.detect.pipeline;
      cell.detect_epochs = p.detect_epochs;
      const double epochs = p.detect_epochs > 0 ? static_cast<double>(p.detect_epochs) : 1.0;
      cell.detect_ns_per_epoch = p.detect_ns / epochs;
      cell.bytes_raw_per_epoch = static_cast<double>(p.bitmap_bytes_raw) / epochs;
      cell.bytes_wire_per_epoch = static_cast<double>(p.bitmap_bytes_wire) / epochs;
      cell.shards = p.shards_used;
      cell.remote_pairs = p.remote_pairs_compared;
      cell.remote_reports = p.remote_reports;
      cell.races = result.detect.races.size();

      if (mode.pipeline == DetectionPipeline::kSerial) {
        serial_exact = ExactKey(result.detect);
        serial_structural = StructuralKey(result.detect);
        cell.exact_match = true;
        cell.structural_match = true;
      } else {
        cell.exact_match = ExactKey(result.detect) == serial_exact;
        cell.structural_match = StructuralKey(result.detect) == serial_structural;
        // TSP's search order is schedule-dependent; only the structural set
        // is required to agree there. Everything else must match exactly.
        const bool required = cell.app == "TSP" ? cell.structural_match : cell.exact_match;
        if (!required) {
          reports_ok = false;
          std::fprintf(stderr, "FAIL: %s/%s reports diverge from serial\n", cell.app.c_str(),
                       cell.mode.c_str());
        }
      }

      table.AddRow({mode.pipeline == DetectionPipeline::kSerial ? cell.app : "",
                    cell.mode, TablePrinter::Fixed(cell.detect_ns_per_epoch / 1e3, 1),
                    TablePrinter::Fixed(cell.bytes_raw_per_epoch, 0),
                    TablePrinter::Fixed(cell.bytes_wire_per_epoch, 0),
                    std::to_string(cell.races),
                    cell.exact_match ? "exact" : (cell.structural_match ? "struct" : "DIFF")});
      cells.push_back(cell);
    }
  }
  table.Print();

  const char* json_path = "BENCH_detector.json";
  if (!WriteDetectorJson(json_path, cells)) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  std::printf("\nWrote %zu cells to %s\n", cells.size(), json_path);
  std::printf(
      "Distributed mode ships compressed bitmaps to pair owners, so the wire\n"
      "column falls well below the raw column while the race reports stay\n"
      "byte-identical to the serial paper pipeline (structural for TSP).\n");
  return reports_ok ? 0 : 1;
}
