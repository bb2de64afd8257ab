// Service throughput bench (docs/SERVICE.md): the always-on case for the
// warm DsmService. Plays the same multi-tenant request mix through the
// service twice — cold (a fresh fabric per workload, the one-process-per-run
// baseline) and warm (Reset()-reused fabrics) — and reports workloads/sec
// plus p50/p99 completion latency per mode. Warm reuse saves only the
// rebuild of the network, detector and observability objects: the shared
// segment and the page tables cost memory and time for the pages a
// workload touches, not for the segment size, so a cold construction is
// cheap and warm p50 is within noise of cold p50 (docs/SERVICE.md).
//
// Writes BENCH_service.json (validated by tools/check_bench_json.py, which
// asserts every request completed and warm mode reused fabrics) and prints
// a human-readable table.
//
// Usage: bench_service_throughput [--smoke]
//   --smoke   smaller inputs and fewer repetitions for CI
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/svc/service.h"

namespace {

using namespace cvm;

constexpr int kWorkers = 1;  // Serialized: latencies compare fabrics, not host load.
constexpr int kNodes = 4;

struct ModeResult {
  std::string mode;  // "cold" | "warm"
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t warm_reuses = 0;
  double total_wall_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double mean_s = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

ModeResult RunMode(bool warm, int reps, bool smoke) {
  svc::ServiceConfig config;
  config.workers = kWorkers;
  config.nodes = kNodes;
  config.warm = warm;
  // Real deployments size the segment for their largest tenant, not the
  // current workload; a big segment checks that cold builds stay cheap.
  config.max_shared_bytes = 64ull << 20;
  config.queue_capacity = 256;
  config.per_tenant_cap = 4;
  config.observability = false;  // Measure the fabrics, not the bookkeeping.

  struct MixEntry {
    const char* app;
    int64_t size;
  };
  const std::vector<MixEntry> mix = smoke
      ? std::vector<MixEntry>{{"fft", 32}, {"sor", 32}, {"water", 64}}
      : std::vector<MixEntry>{{"fft", 64}, {"sor", 128}, {"water", 125}};
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma"};

  ModeResult result;
  result.mode = warm ? "warm" : "cold";

  svc::DsmService service(config);
  service.Start();
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& tenant : tenants) {
      for (const MixEntry& entry : mix) {
        svc::WorkloadRequest request;
        request.tenant = tenant;
        request.app = entry.app;
        request.size = entry.size;
        std::string reason;
        if (service.Submit(request, &reason) == 0) {
          std::fprintf(stderr, "error: rejected %s/%s: %s\n", tenant.c_str(), entry.app,
                       reason.c_str());
          std::exit(1);
        }
        ++result.requests;
      }
    }
    // One mix per drain: queueing delay stays bounded so completion latency
    // measures the fabrics, not queue depth.
    service.Drain();
  }
  service.Stop();
  result.total_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> latencies;
  for (const svc::WorkloadOutcome& outcome : service.outcomes()) {
    if (!outcome.verified) {
      std::fprintf(stderr, "error: %s/%s failed verification\n",
                   outcome.request.tenant.c_str(), outcome.request.app.c_str());
      std::exit(1);
    }
    ++result.completed;
    result.warm_reuses += outcome.warm_reuse ? 1 : 0;
    latencies.push_back(outcome.service_s);
    result.mean_s += outcome.service_s;
  }
  result.rejected = service.scheduler().stats().rejected;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p50_s = Percentile(latencies, 0.5);
    result.p99_s = Percentile(latencies, 0.99);
    result.mean_s /= static_cast<double>(latencies.size());
  }
  return result;
}

bool WriteServiceJson(const std::string& path, const std::vector<ModeResult>& modes) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"mode\": \"%s\", \"workers\": %d, \"nodes\": %d, \"requests\": %llu, "
                  "\"completed\": %llu, \"rejected\": %llu, \"warm_reuses\": %llu, "
                  "\"workloads_per_sec\": %.3f, \"total_wall_s\": %.4f, "
                  "\"p50_latency_s\": %.6f, \"p99_latency_s\": %.6f, "
                  "\"mean_latency_s\": %.6f}%s\n",
                  m.mode.c_str(), kWorkers, kNodes,
                  static_cast<unsigned long long>(m.requests),
                  static_cast<unsigned long long>(m.completed),
                  static_cast<unsigned long long>(m.rejected),
                  static_cast<unsigned long long>(m.warm_reuses),
                  m.total_wall_s > 0 ? static_cast<double>(m.completed) / m.total_wall_s : 0.0,
                  m.total_wall_s, m.p50_s, m.p99_s, m.mean_s,
                  i + 1 < modes.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_service_throughput [--smoke]\n");
      return 2;
    }
  }
  const int reps = smoke ? 4 : 8;
  std::printf("service throughput: 3 tenants x 3 apps x %d rep(s), %d %s worker x %d nodes\n\n",
              reps, kWorkers, "cold-vs-warm", kNodes);

  std::vector<ModeResult> modes;
  modes.push_back(RunMode(/*warm=*/false, reps, smoke));
  modes.push_back(RunMode(/*warm=*/true, reps, smoke));

  TablePrinter table({"Mode", "Requests", "Done", "Warm reuses", "Wl/s", "p50 ms",
                      "p99 ms", "Mean ms"});
  for (const ModeResult& m : modes) {
    table.AddRow({m.mode, std::to_string(m.requests), std::to_string(m.completed),
                  std::to_string(m.warm_reuses),
                  TablePrinter::Fixed(m.total_wall_s > 0
                                          ? static_cast<double>(m.completed) / m.total_wall_s
                                          : 0.0, 2),
                  TablePrinter::Fixed(m.p50_s * 1e3, 2), TablePrinter::Fixed(m.p99_s * 1e3, 2),
                  TablePrinter::Fixed(m.mean_s * 1e3, 2)});
  }
  table.Print();

  const double cold_p50 = modes[0].p50_s;
  const double warm_p50 = modes[1].p50_s;
  std::printf("\nwarm p50 is %.2fx cold p50 (%.2f ms vs %.2f ms)\n",
              cold_p50 > 0 ? warm_p50 / cold_p50 : 0.0, warm_p50 * 1e3, cold_p50 * 1e3);

  if (!WriteServiceJson("BENCH_service.json", modes)) {
    std::fprintf(stderr, "error: cannot write BENCH_service.json\n");
    return 1;
  }
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
