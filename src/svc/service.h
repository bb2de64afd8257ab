// DsmService: the always-on, multi-tenant face of the simulator
// (docs/SERVICE.md). Instead of one process per workload (build a DsmSystem,
// run, tear down), the service keeps a small pool of *warm* fabrics — each a
// full DsmSystem with its network, detector, and observability already
// constructed — and serves an admission-controlled queue of workload
// requests. Between requests a worker calls DsmSystem::Reset() instead of
// building a fresh fabric; a fabric with fewer locks than the next workload
// needs is rebuilt. Segment and page-table memory follow the touched pages,
// so a cold construction is cheap too; the service bench measures both.
//
// Isolation model: a worker fabric serves one workload at a time, so tenants
// never share a segment concurrently. Each completed workload's detection
// output is scoped to its TenantRegion, its metrics land in the
// tenant.<id>.* namespace, and its span lands on the tenant's trace track.
// Because Reset() restores a fabric bit-identically, one tenant running
// under a fault profile cannot perturb another tenant's reports — the
// isolation chaos test asserts exactly that.
#ifndef CVM_SVC_SERVICE_H_
#define CVM_SVC_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/svc/scheduler.h"
#include "src/svc/tenant.h"

namespace cvm::svc {

struct ServiceConfig {
  int workers = 2;          // Warm fabrics (each runs one workload at a time).
  int nodes = 4;            // DSM nodes per fabric.
  uint64_t page_size = 4096;
  uint64_t max_shared_bytes = 32ull << 20;
  ProtocolKind protocol = ProtocolKind::kSingleWriterLrc;
  DetectionPipeline pipeline = DetectionPipeline::kSerial;
  // Detection/barrier scaling knobs, forwarded verbatim into every fabric's
  // DsmOptions (see src/dsm/options.h for semantics and defaults).
  int detect_batch = 1;
  bool barrier_tree = false;
  int barrier_fanout = 4;
  bool warm = true;         // false: fresh DsmSystem per workload (cold baseline).
  SchedPolicy policy = SchedPolicy::kFifo;
  size_t queue_capacity = 64;
  int per_tenant_cap = 2;
  size_t max_tenants = 8;
  // Crash recovery (docs/FAULTS.md "Crash faults & recovery"): a workload
  // whose run ends with recovery.crashed is requeued up to retry_budget
  // times, with capped exponential backoff between attempts
  // (min(base << attempt, cap)). The crashed fabric itself is quarantined —
  // destroyed and rebuilt fresh — never Reset()-reused.
  int retry_budget = 2;
  double retry_backoff_base_s = 0.001;
  double retry_backoff_cap_s = 0.050;
  // Service-level observability: per-tenant counters/latency metrics and one
  // trace track per tenant (workload spans). Independent of any per-run
  // tracing inside the fabrics; no-ops when built with -DCVM_OBS=OFF.
  bool observability = true;
};

// Everything the service records about one served workload.
struct WorkloadOutcome {
  WorkloadRequest request;
  int worker = -1;
  // False on a worker's first workload (the fabric was built for it) and
  // always in cold mode; true when the fabric was Reset()-reused.
  bool warm_reuse = false;
  bool verified = false;
  // Crash recovery: the final run's CrashOutcome, how many retry attempts
  // preceded it, and whether the workload was abandoned with its retry
  // budget spent. Crashed-and-requeued attempts record no outcome of their
  // own — only the final attempt lands here (retries are visible through
  // tenant.<id>.retries / svc.fabric.rebuilds and the scheduler stats).
  CrashOutcome recovery;
  uint32_t attempts = 0;  // Retries before this outcome (0 = first try).
  bool failed = false;    // Crashed with no retry budget left.
  std::vector<RaceReport> races;  // Region-scoped.
  TenantRegion region;
  uint64_t dispatch_unhandled = 0;
  fault::FaultStats fault;        // All-zero unless the request asked for faults.
  double sim_time_ns = 0;
  double queue_s = 0;    // Submit -> dispatch to a worker.
  double service_s = 0;  // Dispatch -> completion (setup + run + verify + reset).
  double total_s = 0;    // Submit -> completion.
};

class DsmService {
 public:
  explicit DsmService(ServiceConfig config);
  ~DsmService();  // Stops (draining queued work) if still running.

  DsmService(const DsmService&) = delete;
  DsmService& operator=(const DsmService&) = delete;

  void Start();

  // Admission: id (> 0) on success; 0 with a reason on rejection. Requests
  // for unknown apps are rejected here, before they reach the queue.
  uint64_t Submit(WorkloadRequest request, std::string* reject_reason = nullptr);

  // Blocks until every admitted request has completed.
  void Drain();

  // Stops admission, drains the queue, joins the workers. Idempotent.
  void Stop();

  // Completed workloads, in completion order. Copy — safe while running.
  std::vector<WorkloadOutcome> outcomes() const;

  const ServiceConfig& config() const { return config_; }
  const Scheduler& scheduler() const { return scheduler_; }

  // Service-level observability; null when config.observability is false or
  // the obs layer is compiled out. The tracer has one track per tenant slot.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  obs::Tracer* tracer() { return tracer_.get(); }

  // The trace track (node id) assigned to a tenant, or -1 before its first
  // admitted request.
  int TenantTrack(const std::string& tenant) const;

 private:
  void WorkerLoop(int worker_index);
  WorkloadOutcome Serve(int worker_index, std::unique_ptr<DsmSystem>& system,
                        WorkloadRequest request);
  void RecordOutcome(const WorkloadOutcome& outcome);
  // Metrics + trace for one crashed-and-about-to-be-requeued attempt.
  void RecordRetry(const WorkloadOutcome& outcome);

  ServiceConfig config_;
  Scheduler scheduler_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex mu_;
  std::vector<WorkloadOutcome> outcomes_;
  std::map<std::string, int> tenant_tracks_;  // Tenant -> trace track (node id).
};

}  // namespace cvm::svc

#endif  // CVM_SVC_SERVICE_H_
