// Service throughput bench (docs/SERVICE.md): plays a multi-tenant request
// mix through a DsmService, which builds a fresh fabric for every request,
// and reports workloads/sec plus p50/p99 completion latency. The shared
// segment and the page tables cost memory and time for the pages a workload
// touches, not for the segment size, so the per-request build is cheap.
//
// Writes BENCH_service.json (validated by tools/check_bench_json.py, which
// asserts every request completed, none was shed, and the latency
// percentiles are ordered) and prints a human-readable table.
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

struct Result {
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double total_wall_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double mean_s = 0;

  double workloads_per_sec() const {
    return total_wall_s > 0 ? static_cast<double>(completed) / total_wall_s : 0.0;
  }
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

Result RunMix(int reps, bool smoke) {
  svc::ServiceConfig config;
  config.workers = kWorkers;
  config.nodes = kNodes;
  // Real deployments size the segment for their largest tenant, not the
  // current workload; a big segment checks that per-request builds stay cheap.
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

  Result result;

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

bool WriteServiceJson(const std::string& path, const Result& r) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "[\n  {\"workers\": %d, \"nodes\": %d, \"requests\": %llu, "
                "\"completed\": %llu, \"rejected\": %llu, "
                "\"workloads_per_sec\": %.3f, \"total_wall_s\": %.4f, "
                "\"p50_latency_s\": %.6f, \"p99_latency_s\": %.6f, "
                "\"mean_latency_s\": %.6f}\n]\n",
                kWorkers, kNodes, static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.rejected),
                r.workloads_per_sec(), r.total_wall_s, r.p50_s, r.p99_s, r.mean_s);
  out << buffer;
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
  std::printf("service throughput: 3 tenants x 3 apps x %d rep(s), %d worker x %d nodes, "
              "fresh fabric per request\n\n",
              reps, kWorkers, kNodes);

  const Result r = RunMix(reps, smoke);

  TablePrinter table({"Requests", "Done", "Wl/s", "p50 ms", "p99 ms", "Mean ms"});
  table.AddRow({std::to_string(r.requests), std::to_string(r.completed),
                TablePrinter::Fixed(r.workloads_per_sec(), 2), TablePrinter::Fixed(r.p50_s * 1e3, 2), TablePrinter::Fixed(r.p99_s * 1e3, 2),
                TablePrinter::Fixed(r.mean_s * 1e3, 2)});
  table.Print();

  if (!WriteServiceJson("BENCH_service.json", r)) {
    std::fprintf(stderr, "error: cannot write BENCH_service.json\n");
    return 1;
  }
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
