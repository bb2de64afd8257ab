#include "src/svc/service.h"

#include <algorithm>
#include <chrono>

#include "src/apps/app_catalog.h"
#include "src/common/check.h"

namespace cvm::svc {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Trace events store string pointers, not copies; the catalog's canonical
// name list provides stable storage for app-name args.
const char* StableAppName(const std::string& app) {
  for (const std::string& name : CatalogAppNames()) {
    if (name == app) {
      return name.c_str();
    }
  }
  return "?";
}

}  // namespace

DsmService::DsmService(ServiceConfig config)
    : config_(config),
      scheduler_(config.policy, config.queue_capacity, config.per_tenant_cap,
                 config.max_tenants) {
  CVM_CHECK_GT(config_.workers, 0);
  CVM_CHECK_GT(config_.nodes, 0);
  if constexpr (obs::kObsCompiledIn) {
    if (config_.observability) {
      metrics_ = std::make_unique<obs::MetricsRegistry>();
      obs::TraceConfig trace;
      trace.trace_enabled = true;
      trace.flow_events = false;  // Workload spans form no cross-track chains.
      tracer_ = std::make_unique<obs::Tracer>(static_cast<int>(config_.max_tenants), trace);
    }
  }
}

DsmService::~DsmService() { Stop(); }

void DsmService::Start() {
  CVM_CHECK(!started_) << "Start() called twice";
  started_ = true;
  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

uint64_t DsmService::Submit(WorkloadRequest request, std::string* reject_reason) {
  if (!KnownCatalogApp(request.app)) {
    scheduler_.RecordRejected(request.tenant);
    if (reject_reason != nullptr) {
      *reject_reason = "unknown app '" + request.app + "'";
    }
    return 0;
  }
  const std::string tenant = request.tenant;
  const uint64_t id = scheduler_.Submit(std::move(request), reject_reason);
  if (id != 0) {
    std::lock_guard<std::mutex> guard(mu_);
    if (tenant_tracks_.find(tenant) == tenant_tracks_.end()) {
      tenant_tracks_[tenant] = static_cast<int>(tenant_tracks_.size());
    }
  }
  return id;
}

void DsmService::Drain() { scheduler_.WaitIdle(); }

void DsmService::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  scheduler_.Shutdown();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

void DsmService::WorkerLoop(int worker_index) {
  // Each worker owns one fabric; in warm mode it survives across requests
  // (Reset() between them), in cold mode Serve() builds and tears down a
  // fresh one per request.
  std::unique_ptr<DsmSystem> system;
  while (std::optional<WorkloadRequest> request = scheduler_.Next()) {
    const std::string tenant = request->tenant;
    WorkloadOutcome outcome = Serve(worker_index, system, std::move(*request));
    if (outcome.recovery.crashed) {
      // Quarantine: a fabric that hosted a dead node is never Reset()-reused
      // — the next workload on this worker gets a fresh build.
      if (system != nullptr) {
        system.reset();
        if constexpr (obs::kObsCompiledIn) {
          if (metrics_ != nullptr) {
            metrics_->counter("svc.fabric.rebuilds")->Increment();
          }
        }
      }
      if (static_cast<int>(outcome.request.attempt) < config_.retry_budget) {
        RecordRetry(outcome);
        WorkloadRequest retry = outcome.request;
        retry.attempt++;
        // Capped exponential backoff before the retry re-enters the queue;
        // the shift is bounded by the (small) retry budget.
        const double backoff_s =
            std::min(config_.retry_backoff_base_s *
                         static_cast<double>(1u << std::min(retry.attempt, 20u)),
                     config_.retry_backoff_cap_s);
        if (backoff_s > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
        }
        scheduler_.Requeue(std::move(retry));
        continue;  // No outcome, no OnComplete: the workload is still owed.
      }
      outcome.failed = true;  // Budget spent; the workload fails for good.
    }
    RecordOutcome(outcome);
    scheduler_.OnComplete(tenant);
  }
}

WorkloadOutcome DsmService::Serve(int worker_index, std::unique_ptr<DsmSystem>& system,
                                  WorkloadRequest request) {
  const auto dispatched_at = std::chrono::steady_clock::now();

  WorkloadOutcome outcome;
  outcome.worker = worker_index;
  outcome.queue_s = SecondsSince(request.submitted_at, dispatched_at);

  // The request's fault plan, seeded like cvm_run: the workload seed doubles
  // as the fault seed so one number reproduces a faulty run.
  fault::FaultPlan plan =
      fault::FaultPlan::FromProfile(request.fault_profile,
                                    request.seed != 0 ? request.seed : 1);
  if (request.fault_drop >= 0) {
    plan.drop_prob = request.fault_drop;
  }
  plan.crash_reboot = request.fault_crash_reboot;
  if (plan.crash_enabled() && plan.crash_reboot && request.attempt > 0) {
    // Transient failure: the node is back after reboot, so retry attempts
    // run with the crash disarmed. Permanent crashes keep firing until the
    // retry budget is spent.
    plan.crash_epoch = -1;
  }

  CatalogRequest catalog;
  catalog.app = request.app;
  catalog.size = request.size;
  catalog.seed = request.seed;
  catalog.page_size = config_.page_size;
  const int num_locks = std::max(DsmOptions{}.num_locks, CatalogLocksNeeded(catalog));

  // A warm fabric is reused only if it has enough locks for this workload.
  const bool reuse =
      config_.warm && system != nullptr && system->options().num_locks >= num_locks;
  if (reuse) {
    system->Reset();
    system->SetFaultPlan(plan);
  } else {
    DsmOptions options;
    options.num_nodes = config_.nodes;
    options.page_size = config_.page_size;
    options.max_shared_bytes = config_.max_shared_bytes;
    options.num_locks = num_locks;
    options.protocol = config_.protocol;
    options.detection_pipeline = config_.pipeline;
    options.detect_batch = config_.detect_batch;
    options.barrier_tree = config_.barrier_tree;
    options.barrier_fanout = config_.barrier_fanout;
    options.fault_plan = plan;
    system = std::make_unique<DsmSystem>(options);
  }
  outcome.warm_reuse = reuse;

  std::unique_ptr<ParallelApp> app = MakeCatalogApp(catalog);
  CVM_CHECK(app != nullptr) << "admission let through unknown app " << request.app;

  const GlobalAddr region_base = system->segment().used_bytes();
  app->Setup(*system);
  outcome.region = TenantRegion(request.tenant, region_base,
                                system->segment().used_bytes() - region_base);

  RunResult result = system->Run([&app](NodeContext& ctx) { app->Run(ctx); });

  outcome.verified = app->Verify();
  outcome.races = outcome.region.ScopeReports(std::move(result.races));
  outcome.dispatch_unhandled = result.dispatch_unhandled;
  outcome.fault = result.fault;
  outcome.recovery = result.recovery;
  outcome.attempts = request.attempt;
  outcome.sim_time_ns = result.sim_time_ns;

  if (!config_.warm) {
    system.reset();  // Cold baseline pays teardown inside service_s too.
  }

  const auto completed_at = std::chrono::steady_clock::now();
  outcome.service_s = SecondsSince(dispatched_at, completed_at);
  outcome.total_s = SecondsSince(request.submitted_at, completed_at);
  outcome.request = std::move(request);
  return outcome;
}

void DsmService::RecordRetry(const WorkloadOutcome& outcome) {
  const std::string& tenant = outcome.request.tenant;
  if constexpr (obs::kObsCompiledIn) {
    if (metrics_ != nullptr) {
      metrics_->counter(TenantMetricName(tenant, "retries"))->Increment();
      metrics_->counter("svc.retries")->Increment();
    }
    if (tracer_ != nullptr) {
      obs::TraceEvent event;
      event.name = "workload.retry";
      event.cat = "svc";
      event.phase = 'i';
      event.node = TenantTrack(tenant);
      event.wall_ts_ns = tracer_->WallNowNs();
      event.arg_name = "attempt";
      event.arg_value = outcome.request.attempt;
      event.arg2_name = "crash_node";
      event.arg2_value =
          outcome.recovery.crash_node == kNoNode
              ? 0
              : static_cast<uint64_t>(outcome.recovery.crash_node);
      event.str_arg_name = "app";
      event.str_arg_value = StableAppName(outcome.request.app);
      tracer_->Emit(event);
      tracer_->Drain(event.node);
    }
  }
}

void DsmService::RecordOutcome(const WorkloadOutcome& outcome) {
  const std::string& tenant = outcome.request.tenant;
  if constexpr (obs::kObsCompiledIn) {
    if (metrics_ != nullptr) {
      metrics_->counter(TenantMetricName(tenant, "completed"))->Increment();
      if (outcome.failed) {
        metrics_->counter(TenantMetricName(tenant, "failed"))->Increment();
        metrics_->counter("svc.failed")->Increment();
      }
      metrics_->counter(TenantMetricName(tenant, "races"))->Add(outcome.races.size());
      metrics_->counter(TenantMetricName(tenant, "unhandled"))
          ->Add(outcome.dispatch_unhandled);
      metrics_->histogram(TenantMetricName(tenant, "service_us"))
          ->Observe(static_cast<uint64_t>(outcome.service_s * 1e6));
      metrics_->histogram(TenantMetricName(tenant, "queue_us"))
          ->Observe(static_cast<uint64_t>(outcome.queue_s * 1e6));
      metrics_->counter("svc.completed")->Increment();
      metrics_->counter("svc.races")->Add(outcome.races.size());
    }
    if (tracer_ != nullptr) {
      obs::TraceEvent event;
      event.name = "workload";
      event.cat = "svc";
      event.phase = 'X';
      event.node = TenantTrack(tenant);
      const uint64_t dur_ns = static_cast<uint64_t>(outcome.service_s * 1e9);
      const uint64_t now_ns = tracer_->WallNowNs();
      event.wall_ts_ns = now_ns > dur_ns ? now_ns - dur_ns : 0;
      event.wall_dur_ns = dur_ns;
      event.arg_name = "races";
      event.arg_value = outcome.races.size();
      event.arg2_name = "warm";
      event.arg2_value = outcome.warm_reuse ? 1 : 0;
      event.str_arg_name = "app";
      event.str_arg_value = StableAppName(outcome.request.app);
      tracer_->Emit(event);
      tracer_->Drain(event.node);
    }
  }
  std::lock_guard<std::mutex> guard(mu_);
  outcomes_.push_back(outcome);
}

std::vector<WorkloadOutcome> DsmService::outcomes() const {
  std::lock_guard<std::mutex> guard(mu_);
  return outcomes_;
}

int DsmService::TenantTrack(const std::string& tenant) const {
  std::lock_guard<std::mutex> guard(mu_);
  const auto it = tenant_tracks_.find(tenant);
  return it == tenant_tracks_.end() ? -1 : it->second;
}

}  // namespace cvm::svc
