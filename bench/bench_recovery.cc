// Crash-recovery bench (docs/FAULTS.md "Crash faults & recovery",
// docs/SERVICE.md): what does surviving node crashes cost the always-on
// service? Plays the same multi-tenant mix through a DsmService twice —
// clean (no faults) and crash_reboot (every workload's run crashes a
// seed-chosen node at barrier epoch 1 and reboots on retry) — and reports
// throughput, completion latency, and retries per mode. Every workload must
// complete verified in both modes: the crash mode pays for the torn first
// attempt, the retry's fresh fabric, and the backoff, but never loses work.
//
// Writes BENCH_recovery.json (validated by tools/check_bench_json.py, which
// asserts every crash-mode workload was retried and that recovery costs
// strictly more wall time than the clean run) and prints a table.
//
// Usage: bench_recovery [--smoke]
//   --smoke   smaller inputs and fewer repetitions for CI
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/fault/fault.h"
#include "src/svc/service.h"

namespace {

using namespace cvm;

constexpr int kWorkers = 1;  // Serialized: latencies compare recovery cost, not host load.
constexpr int kNodes = 4;

struct ModeResult {
  std::string mode;  // "clean" | "crash_reboot"
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t retried = 0;
  uint64_t failed = 0;
  double total_wall_s = 0;
  double p50_s = 0;
  double mean_s = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

ModeResult RunMode(bool crash, int reps, bool smoke) {
  svc::ServiceConfig config;
  config.workers = kWorkers;
  config.nodes = kNodes;
  config.max_shared_bytes = 64ull << 20;
  config.queue_capacity = 256;
  config.per_tenant_cap = 4;
  config.retry_budget = 2;
  config.retry_backoff_base_s = 0.0005;
  config.retry_backoff_cap_s = 0.005;

  struct MixEntry {
    const char* app;
    int64_t size;
  };
  const std::vector<MixEntry> mix = smoke
      ? std::vector<MixEntry>{{"sor", 32}, {"water", 64}, {"fft", 32}}
      : std::vector<MixEntry>{{"sor", 128}, {"water", 125}, {"fft", 64}};
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma"};

  ModeResult result;
  result.mode = crash ? "crash_reboot" : "clean";

  svc::DsmService service(config);
  service.Start();
  const auto start = std::chrono::steady_clock::now();
  uint64_t seed = 1;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& tenant : tenants) {
      for (const MixEntry& entry : mix) {
        svc::WorkloadRequest request;
        request.tenant = tenant;
        request.app = entry.app;
        request.size = entry.size;
        request.seed = seed++;  // Vary the crash victim across requests.
        if (crash) {
          request.fault_profile = fault::FaultProfile::kCrash;
          request.fault_crash_reboot = true;
        }
        std::string reason;
        if (service.Submit(request, &reason) == 0) {
          std::fprintf(stderr, "error: rejected %s/%s: %s\n", tenant.c_str(), entry.app,
                       reason.c_str());
          std::exit(1);
        }
        ++result.requests;
      }
    }
    service.Drain();  // Bounded queueing: latency measures recovery, not depth.
  }
  service.Stop();
  result.total_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> latencies;
  for (const svc::WorkloadOutcome& outcome : service.outcomes()) {
    if (!outcome.verified || outcome.failed) {
      std::fprintf(stderr, "error: %s/%s did not recover to a verified run\n",
                   outcome.request.tenant.c_str(), outcome.request.app.c_str());
      std::exit(1);
    }
    ++result.completed;
    result.failed += outcome.failed ? 1 : 0;
    latencies.push_back(outcome.service_s);
    result.mean_s += outcome.service_s;
  }
  result.retried = service.scheduler().stats().retried;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p50_s = Percentile(latencies, 0.5);
    result.mean_s /= static_cast<double>(latencies.size());
  }
  return result;
}

bool WriteRecoveryJson(const std::string& path, const std::vector<ModeResult>& modes) {
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
                  "\"completed\": %llu, \"retried\": %llu, \"failed\": %llu, "
                  "\"workloads_per_sec\": %.3f, \"total_wall_s\": %.4f, "
                  "\"p50_latency_s\": %.6f, \"mean_latency_s\": %.6f}%s\n",
                  m.mode.c_str(), kWorkers, kNodes,
                  static_cast<unsigned long long>(m.requests),
                  static_cast<unsigned long long>(m.completed),
                  static_cast<unsigned long long>(m.retried),
                  static_cast<unsigned long long>(m.failed),
                  m.total_wall_s > 0 ? static_cast<double>(m.completed) / m.total_wall_s : 0.0,
                  m.total_wall_s, m.p50_s, m.mean_s,
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
      std::fprintf(stderr, "usage: bench_recovery [--smoke]\n");
      return 2;
    }
  }
  const int reps = smoke ? 2 : 4;
  std::printf(
      "crash recovery: 3 tenants x 3 apps x %d rep(s), clean vs crash+reboot, "
      "%d worker x %d nodes\n\n",
      reps, kWorkers, kNodes);

  std::vector<ModeResult> modes;
  modes.push_back(RunMode(/*crash=*/false, reps, smoke));
  modes.push_back(RunMode(/*crash=*/true, reps, smoke));

  TablePrinter table({"Mode", "Requests", "Done", "Retried", "Wl/s", "p50 ms", "Mean ms"});
  for (const ModeResult& m : modes) {
    table.AddRow({m.mode, std::to_string(m.requests), std::to_string(m.completed),
                  std::to_string(m.retried),
                  TablePrinter::Fixed(m.total_wall_s > 0
                                          ? static_cast<double>(m.completed) / m.total_wall_s
                                          : 0.0, 2),
                  TablePrinter::Fixed(m.p50_s * 1e3, 2),
                  TablePrinter::Fixed(m.mean_s * 1e3, 2)});
  }
  table.Print();

  const double overhead = modes[0].total_wall_s > 0
      ? modes[1].total_wall_s / modes[0].total_wall_s
      : 0.0;
  std::printf("\nsurviving a crash on every workload costs %.2fx the clean wall time\n",
              overhead);

  if (!WriteRecoveryJson("BENCH_recovery.json", modes)) {
    std::fprintf(stderr, "error: cannot write BENCH_recovery.json\n");
    return 1;
  }
  std::printf("wrote BENCH_recovery.json\n");
  return 0;
}
