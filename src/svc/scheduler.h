// Admission control and scheduling for the DSM service: a bounded queue of
// workload requests in front of a small pool of workers. Admission
// rejects (rather than blocks) on a full queue, an unknown app, an invalid
// tenant id, or a tenant table overflow — the service degrades by shedding
// load, never by wedging. Dispatch honors a per-tenant concurrency cap and
// one of two policies:
//
//   kFifo      — oldest admitted request whose tenant is under its cap.
//   kFairShare — tenant with the least service so far (running + completed)
//                first; ties break lexicographically, then oldest request.
//
// The scheduler is policy only: it never touches a DsmSystem. Workers call
// Next() (blocking) / OnComplete(); tests drive the same logic through the
// non-blocking TryNext().
#ifndef CVM_SVC_SCHEDULER_H_
#define CVM_SVC_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/fault/fault.h"

namespace cvm::svc {

enum class SchedPolicy : uint8_t {
  kFifo,
  kFairShare,
};

const char* PolicyName(SchedPolicy policy);
std::optional<SchedPolicy> ParsePolicy(const std::string& name);

// One admitted (or submitted) unit of work: run `app` at `size` for `tenant`,
// optionally under a fault profile. The request's fault plan perturbs only
// the run that serves it — per-tenant chaos, not service-wide.
struct WorkloadRequest {
  uint64_t id = 0;  // Assigned at admission; 0 = not yet admitted.
  std::string tenant;
  std::string app;
  int64_t size = -1;       // <= 0 keeps the app's default scale.
  uint64_t seed = 0;       // 0 keeps the app's default input.
  fault::FaultProfile fault_profile = fault::FaultProfile::kOff;
  double fault_drop = -1;  // < 0 keeps the profile's drop rate.
  // Marks a requested crash as transient: the service disarms the crash on
  // retry attempts, modeling the node coming back after reboot. A permanent
  // crash (false) recurs on every retry until the budget is spent.
  bool fault_crash_reboot = false;
  // Retry attempt this dispatch represents: 0 on first admission, bumped by
  // the service each time a crash-failed run is requeued.
  uint32_t attempt = 0;
  uint64_t submit_seq = 0; // Admission order; the FIFO key.
  std::chrono::steady_clock::time_point submitted_at{};
};

struct SchedulerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t retried = 0;  // Crash-failed dispatches returned via Requeue().
};

// Per-tenant accounting, exposed for the service's tables and metrics.
struct TenantCounts {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t retried = 0;
  int running = 0;
};

class Scheduler {
 public:
  Scheduler(SchedPolicy policy, size_t queue_capacity, int per_tenant_cap,
            size_t max_tenants);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Admission: assigns id/submit_seq/submitted_at, enqueues, and returns the
  // id; returns 0 with a reason ("queue full", ...) on rejection. Never
  // blocks.
  uint64_t Submit(WorkloadRequest request, std::string* reject_reason = nullptr);

  // Records an admission rejection decided outside the scheduler (the
  // service rejects unknown apps before they reach the queue) so the
  // submitted/rejected accounting stays in one place.
  void RecordRejected(const std::string& tenant);

  // Blocking dispatch: waits for a dispatchable request (queued, tenant under
  // cap) or shutdown. Returns nullopt only after Shutdown() once the queue
  // has drained — workers use it as their loop condition.
  std::optional<WorkloadRequest> Next();

  // Non-blocking dispatch for tests and the drain path.
  std::optional<WorkloadRequest> TryNext();

  // Marks one of `tenant`'s running requests finished.
  void OnComplete(const std::string& tenant);

  // Returns a crash-failed dispatch to the queue for another attempt. The
  // request was already admitted, so admission checks (queue capacity,
  // tenant-table bound, shutdown) do not reapply and the call never rejects
  // — a retry is owed, not requested. The tenant's running count drops
  // without counting a completion. Keeps the original id/submit_seq, so
  // FIFO still orders the retry by its first admission.
  void Requeue(WorkloadRequest request);

  // Stops admission; queued requests still dispatch (drain semantics).
  void Shutdown();

  // Blocks until nothing is queued or running.
  void WaitIdle();

  SchedulerStats stats() const;
  std::map<std::string, TenantCounts> tenant_counts() const;

 private:
  // Index into queue_ of the next dispatchable request under the policy, or
  // nullopt if every queued tenant is at its cap (or the queue is empty).
  std::optional<size_t> PickLocked() const;

  const SchedPolicy policy_;
  const size_t queue_capacity_;
  const int per_tenant_cap_;
  const size_t max_tenants_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkloadRequest> queue_;
  std::map<std::string, TenantCounts> tenants_;
  SchedulerStats stats_;
  uint64_t next_id_ = 1;
  bool shutdown_ = false;
};

}  // namespace cvm::svc

#endif  // CVM_SVC_SCHEDULER_H_
