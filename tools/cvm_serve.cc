// cvm_serve: the always-on face of the simulator (docs/SERVICE.md). Starts a
// DsmService — a pool of warm DSM fabrics behind an admission-controlled
// queue — and feeds it workload requests read from a script file (or stdin),
// one request per line:
//
//   submit tenant=alpha app=fft size=32
//   submit tenant=chaos app=water fault=lossy drop=0.05
//   drain                      # wait for everything submitted so far
//   # comments and blank lines are ignored
//
// Prints a per-tenant service report and exits nonzero if any workload
// failed verification or saw unhandled protocol messages.
//
// Examples:
//   cvm_serve --script=requests.txt --workers=2 --policy=fair
//   echo "submit tenant=t app=sor" | cvm_serve
//   cvm_serve --script=r.txt --cold        # fresh fabric per workload
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/svc/service.h"
#include "tools/flags.h"

namespace {

using namespace cvm;

int Usage() {
  std::printf(
      "usage: cvm_serve [--script=FILE] [options]\n"
      "\n"
      "Reads workload requests from FILE (default: stdin), one per line:\n"
      "  submit tenant=ID app={fft|sor|tsp|water|lu} [size=N] [seed=N]\n"
      "         [fault={off|lossy|bursty|partition|stress|crash}] [drop=P]\n"
      "         [reboot=0|1]   # crash is transient; retries run crash-free\n"
      "  drain                # wait for everything submitted so far\n"
      "Lines starting with '#' and blank lines are ignored.\n"
      "\n"
      "options:\n"
      "  --workers=N          warm fabrics serving the queue (default 2)\n"
      "  --retry-budget=N     crash-failed workload retries before giving up\n"
      "                       (default 2; docs/FAULTS.md)\n"
      "  --nodes=N            DSM nodes per fabric (default 4)\n"
      "  --protocol=P         lazy | multi | eager (default lazy)\n"
      "  --pipeline=P         serial | distributed (default serial)\n"
      "  --detect-batch=N     bitmap/compare rounds once per N epochs (default 1)\n"
      "  --barrier-tree       k-ary combine-tree barrier (default: flat)\n"
      "  --barrier-fanout=K   combine-tree fanout, 1 <= K <= nodes (default 4)\n"
      "  --policy=P           fifo | fair (default fifo)\n"
      "  --queue-cap=N        admission queue capacity (default 64)\n"
      "  --tenant-cap=N       per-tenant concurrent workloads (default 2)\n"
      "  --max-tenants=N      tenant table size (default 8)\n"
      "  --cold               fresh fabric per workload (cold baseline)\n"
      "  --metrics-out=FILE   service metrics (CSV, or JSON if FILE ends .json)\n"
      "  --trace-json=FILE    per-tenant workload spans (Chrome/Perfetto JSON)\n"
      "  --outcomes-json=FILE machine-readable outcome list\n");
  return 2;
}

// `submit key=value ...` body -> request; false + error on a bad line.
bool ParseSubmit(const std::vector<std::string>& tokens, svc::WorkloadRequest* request,
                 std::string* error) {
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "malformed token '" + token + "' (want key=value)";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "tenant") {
      request->tenant = value;
    } else if (key == "app") {
      request->app = value;
    } else if (key == "size") {
      request->size = std::atoll(value.c_str());
    } else if (key == "seed") {
      request->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (key == "fault") {
      const auto profile = fault::ParseProfile(value);
      if (!profile.has_value()) {
        *error = "unknown fault profile '" + value + "' (valid: " +
                 fault::ValidProfileNames() + ")";
        return false;
      }
      request->fault_profile = *profile;
    } else if (key == "reboot") {
      if (value != "0" && value != "1") {
        *error = "reboot=" + value + " must be 0 or 1";
        return false;
      }
      request->fault_crash_reboot = value == "1";
    } else if (key == "drop") {
      char* end = nullptr;
      const double drop = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || drop < 0.0 || drop > 1.0) {
        *error = "drop=" + value + " is not a probability in [0, 1]";
        return false;
      }
      request->fault_drop = drop;
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  if (request->tenant.empty() || request->app.empty()) {
    *error = "submit needs tenant= and app=";
    return false;
  }
  return true;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  std::sort(sorted.begin(), sorted.end());
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }
  const std::vector<std::string> accepted = {
      "script", "workers", "nodes", "protocol", "pipeline", "policy",
      "detect-batch", "barrier-tree", "barrier-fanout", "queue-cap", "tenant-cap",
      "max-tenants", "cold", "retry-budget", "metrics-out", "trace-json", "outcomes-json", "help"};
  for (const std::string& key : flags.UnknownKeys(accepted)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return Usage();
  }
  if (flags.GetBool("help", false)) {
    return Usage();
  }

  svc::ServiceConfig config;
  config.workers = static_cast<int>(flags.GetInt("workers", 2));
  config.nodes = static_cast<int>(flags.GetInt("nodes", 4));
  config.queue_capacity = static_cast<size_t>(flags.GetInt("queue-cap", 64));
  config.per_tenant_cap = static_cast<int>(flags.GetInt("tenant-cap", 2));
  config.max_tenants = static_cast<size_t>(flags.GetInt("max-tenants", 8));
  config.warm = !flags.GetBool("cold", false);
  if (config.workers < 1 || config.nodes < 1 || config.queue_capacity < 1 ||
      config.per_tenant_cap < 1 || config.max_tenants < 1) {
    std::fprintf(stderr, "error: --workers/--nodes/--queue-cap/--tenant-cap/"
                         "--max-tenants must all be at least 1\n");
    return Usage();
  }
  const int64_t retry_budget = flags.GetInt("retry-budget", 2);
  if (retry_budget < 0 || retry_budget > 64) {
    std::fprintf(stderr, "error: --retry-budget=%lld must be in [0, 64]\n",
                 static_cast<long long>(retry_budget));
    return Usage();
  }
  config.retry_budget = static_cast<int>(retry_budget);

  const std::string protocol = flags.GetString("protocol", "lazy");
  if (protocol == "lazy") {
    config.protocol = ProtocolKind::kSingleWriterLrc;
  } else if (protocol == "multi") {
    config.protocol = ProtocolKind::kMultiWriterHomeLrc;
  } else if (protocol == "eager") {
    config.protocol = ProtocolKind::kEagerRcInvalidate;
  } else {
    std::fprintf(stderr, "error: unknown protocol '%s'\n", protocol.c_str());
    return Usage();
  }
  const std::string pipeline = flags.GetString("pipeline", "serial");
  if (pipeline == "serial") {
    config.pipeline = DetectionPipeline::kSerial;
  } else if (pipeline == "distributed") {
    config.pipeline = DetectionPipeline::kDistributed;
  } else {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", pipeline.c_str());
    return Usage();
  }
  // Same detection/barrier knob validation as cvm_run, against the per-fabric
  // node count every tenant's runs will use.
  const int64_t detect_batch = flags.GetInt("detect-batch", 1);
  if (detect_batch < 1) {
    std::fprintf(stderr, "error: --detect-batch=%lld must be at least 1 (1 = unbatched)\n",
                 static_cast<long long>(detect_batch));
    return Usage();
  }
  config.detect_batch = static_cast<int>(detect_batch);
  config.barrier_tree = flags.GetBool("barrier-tree", false);
  const int64_t fanout = flags.GetInt("barrier-fanout", 4);
  if (flags.Has("barrier-fanout") && (fanout < 1 || fanout > config.nodes)) {
    std::fprintf(stderr, "error: --barrier-fanout=%lld must be in [1, --nodes=%d]\n",
                 static_cast<long long>(fanout), config.nodes);
    return Usage();
  }
  config.barrier_fanout = static_cast<int>(fanout);
  const auto policy = svc::ParsePolicy(flags.GetString("policy", "fifo"));
  if (!policy.has_value()) {
    std::fprintf(stderr, "error: unknown policy '%s' (fifo | fair)\n",
                 flags.GetString("policy", "fifo").c_str());
    return Usage();
  }
  config.policy = *policy;

  std::ifstream script_file;
  std::istream* input = &std::cin;
  if (flags.Has("script")) {
    script_file.open(flags.GetString("script", ""));
    if (!script_file) {
      std::fprintf(stderr, "error: cannot read script %s\n",
                   flags.GetString("script", "").c_str());
      return 1;
    }
    input = &script_file;
  }

  svc::DsmService service(config);
  service.Start();
  std::printf("cvm_serve: %d %s worker(s) x %d nodes, policy %s, protocol %s\n",
              config.workers, config.warm ? "warm" : "cold", config.nodes,
              svc::PolicyName(config.policy), protocol.c_str());

  int bad_lines = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(*input, line)) {
    ++line_no;
    std::istringstream stream(line);
    std::vector<std::string> tokens;
    std::string token;
    while (stream >> token) {
      tokens.push_back(token);
    }
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    if (tokens[0] == "drain") {
      service.Drain();
      continue;
    }
    if (tokens[0] != "submit") {
      std::fprintf(stderr, "line %d: unknown command '%s'\n", line_no, tokens[0].c_str());
      ++bad_lines;
      continue;
    }
    svc::WorkloadRequest request;
    if (!ParseSubmit(tokens, &request, &error)) {
      std::fprintf(stderr, "line %d: %s\n", line_no, error.c_str());
      ++bad_lines;
      continue;
    }
    std::string reason;
    const uint64_t id = service.Submit(request, &reason);
    if (id == 0) {
      std::printf("rejected tenant=%s app=%s: %s\n", request.tenant.c_str(),
                  request.app.c_str(), reason.c_str());
    }
  }
  service.Drain();
  service.Stop();

  const std::vector<svc::WorkloadOutcome> outcomes = service.outcomes();
  const auto tenants = service.scheduler().tenant_counts();
  const svc::SchedulerStats stats = service.scheduler().stats();

  TablePrinter table({"Tenant", "Admitted", "Rejected", "Completed", "Retried",
                      "Failed", "Races", "Verified", "p50 ms", "Warm"});
  int unverified = 0;
  int crash_failed = 0;
  uint64_t unhandled = 0;
  for (const auto& [tenant, counts] : tenants) {
    uint64_t races = 0;
    uint64_t warm = 0;
    uint64_t failed = 0;
    bool all_verified = true;
    std::vector<double> latencies;
    for (const svc::WorkloadOutcome& outcome : outcomes) {
      if (outcome.request.tenant != tenant) {
        continue;
      }
      races += outcome.races.size();
      warm += outcome.warm_reuse ? 1 : 0;
      failed += outcome.failed ? 1 : 0;
      all_verified = all_verified && outcome.verified;
      latencies.push_back(outcome.service_s);
    }
    table.AddRow({tenant, std::to_string(counts.admitted), std::to_string(counts.rejected),
                  std::to_string(counts.completed), std::to_string(counts.retried),
                  std::to_string(failed), std::to_string(races),
                  all_verified ? "yes" : "NO",
                  std::to_string(Percentile(latencies, 0.5) * 1e3),
                  std::to_string(warm) + "/" + std::to_string(counts.completed)});
  }
  for (const svc::WorkloadOutcome& outcome : outcomes) {
    unverified += outcome.verified ? 0 : 1;
    crash_failed += outcome.failed ? 1 : 0;
    unhandled += outcome.dispatch_unhandled;
  }
  table.Print();
  std::printf("served %lu of %lu submitted (%lu rejected, %lu retried, %d bad lines), "
              "%d unverified, %d crash-failed, %lu unhandled messages\n",
              static_cast<unsigned long>(stats.completed),
              static_cast<unsigned long>(stats.submitted),
              static_cast<unsigned long>(stats.rejected),
              static_cast<unsigned long>(stats.retried), bad_lines, unverified,
              crash_failed, static_cast<unsigned long>(unhandled));

  if (flags.Has("metrics-out") && service.metrics() != nullptr) {
    // The service never snapshots on its own (no shared barrier clock); one
    // final snapshot turns the cumulative registry into a one-row table.
    service.metrics()->SnapshotEpoch(0, 0);
    const std::string path = flags.GetString("metrics-out", "");
    const bool as_json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    const bool ok = as_json ? service.metrics()->WriteJson(path)
                            : service.metrics()->WriteCsv(path);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
      return 1;
    }
    std::printf("metrics written: %s\n", path.c_str());
  }
  if (flags.Has("trace-json") && service.tracer() != nullptr) {
    const std::string path = flags.GetString("trace-json", "");
    if (!service.tracer()->WriteChromeJson(path)) {
      std::fprintf(stderr, "error: cannot write trace JSON to %s\n", path.c_str());
      return 1;
    }
    std::printf("trace JSON written: %s (%lu spans)\n", path.c_str(),
                static_cast<unsigned long>(service.tracer()->TotalEmitted()));
  }
  if (flags.Has("outcomes-json")) {
    const std::string path = flags.GetString("outcomes-json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write outcomes JSON to %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const svc::WorkloadOutcome& o = outcomes[i];
      std::fprintf(f,
                   "  {\"id\": %lu, \"tenant\": \"%s\", \"app\": \"%s\", \"worker\": %d, "
                   "\"warm\": %s, \"verified\": %s, \"races\": %zu, "
                   "\"attempts\": %u, \"crashed\": %s, \"failed\": %s, "
                   "\"dispatch_unhandled\": %lu, \"queue_s\": %.6f, \"service_s\": %.6f, "
                   "\"total_s\": %.6f, \"sim_time_ns\": %.1f}%s\n",
                   static_cast<unsigned long>(o.request.id), o.request.tenant.c_str(),
                   o.request.app.c_str(), o.worker, o.warm_reuse ? "true" : "false",
                   o.verified ? "true" : "false", o.races.size(), o.attempts,
                   o.recovery.crashed ? "true" : "false", o.failed ? "true" : "false",
                   static_cast<unsigned long>(o.dispatch_unhandled), o.queue_s,
                   o.service_s, o.total_s, o.sim_time_ns,
                   i + 1 < outcomes.size() ? "," : "");
    }
    const bool ok = std::fprintf(f, "]\n") > 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "error: cannot write outcomes JSON to %s\n", path.c_str());
      return 1;
    }
    std::printf("outcomes JSON written: %s (%zu outcomes)\n", path.c_str(), outcomes.size());
  }

  return (unverified == 0 && unhandled == 0 && bad_lines == 0) ? 0 : 1;
}
