#include "src/svc/scheduler.h"

#include "src/common/check.h"
#include "src/svc/tenant.h"

namespace cvm::svc {

const char* PolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kFairShare:
      return "fair";
  }
  return "?";
}

std::optional<SchedPolicy> ParsePolicy(const std::string& name) {
  if (name == "fifo") {
    return SchedPolicy::kFifo;
  }
  if (name == "fair" || name == "fair-share") {
    return SchedPolicy::kFairShare;
  }
  return std::nullopt;
}

Scheduler::Scheduler(SchedPolicy policy, size_t queue_capacity, int per_tenant_cap,
                     size_t max_tenants)
    : policy_(policy),
      queue_capacity_(queue_capacity),
      per_tenant_cap_(per_tenant_cap),
      max_tenants_(max_tenants) {
  CVM_CHECK_GT(queue_capacity_, 0u);
  CVM_CHECK_GT(per_tenant_cap_, 0);
  CVM_CHECK_GT(max_tenants_, 0u);
}

uint64_t Scheduler::Submit(WorkloadRequest request, std::string* reject_reason) {
  std::lock_guard<std::mutex> guard(mu_);
  stats_.submitted++;
  auto reject = [&](const std::string& reason) -> uint64_t {
    stats_.rejected++;
    // Keep per-tenant rejection counts only for well-formed tenant ids; a
    // garbage id has no tenant row to charge.
    if (ValidTenantId(request.tenant)) {
      tenants_[request.tenant].rejected++;
    }
    if (reject_reason != nullptr) {
      *reject_reason = reason;
    }
    return 0;
  };
  if (shutdown_) {
    return reject("service shutting down");
  }
  if (!ValidTenantId(request.tenant)) {
    return reject("invalid tenant id '" + request.tenant +
                  "' (1-32 chars from [A-Za-z0-9_-])");
  }
  if (queue_.size() >= queue_capacity_) {
    return reject("queue full (" + std::to_string(queue_capacity_) + " queued)");
  }
  if (tenants_.find(request.tenant) == tenants_.end() &&
      tenants_.size() >= max_tenants_) {
    return reject("tenant table full (" + std::to_string(max_tenants_) + " tenants)");
  }
  request.id = next_id_++;
  request.submit_seq = request.id;
  request.submitted_at = std::chrono::steady_clock::now();
  tenants_[request.tenant].admitted++;
  stats_.admitted++;
  const uint64_t id = request.id;
  queue_.push_back(std::move(request));
  cv_.notify_all();
  return id;
}

void Scheduler::RecordRejected(const std::string& tenant) {
  std::lock_guard<std::mutex> guard(mu_);
  stats_.submitted++;
  stats_.rejected++;
  if (ValidTenantId(tenant)) {
    tenants_[tenant].rejected++;
  }
}

std::optional<size_t> Scheduler::PickLocked() const {
  std::optional<size_t> best;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const WorkloadRequest& req = queue_[i];
    const auto it = tenants_.find(req.tenant);
    const int running = it == tenants_.end() ? 0 : it->second.running;
    if (running >= per_tenant_cap_) {
      continue;
    }
    if (!best.has_value()) {
      best = i;
      continue;
    }
    const WorkloadRequest& incumbent = queue_[*best];
    if (policy_ == SchedPolicy::kFifo) {
      if (req.submit_seq < incumbent.submit_seq) {
        best = i;
      }
      continue;
    }
    // Fair share: least-served tenant first, then name, then age.
    auto service_of = [this](const std::string& tenant) -> uint64_t {
      const auto t = tenants_.find(tenant);
      if (t == tenants_.end()) {
        return 0;
      }
      return t->second.completed + static_cast<uint64_t>(t->second.running);
    };
    const uint64_t req_service = service_of(req.tenant);
    const uint64_t inc_service = service_of(incumbent.tenant);
    if (req_service != inc_service) {
      if (req_service < inc_service) {
        best = i;
      }
    } else if (req.tenant != incumbent.tenant) {
      if (req.tenant < incumbent.tenant) {
        best = i;
      }
    } else if (req.submit_seq < incumbent.submit_seq) {
      best = i;
    }
  }
  return best;
}

std::optional<WorkloadRequest> Scheduler::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const std::optional<size_t> pick = PickLocked();
    if (pick.has_value()) {
      WorkloadRequest request = std::move(queue_[*pick]);
      queue_.erase(queue_.begin() + static_cast<long>(*pick));
      tenants_[request.tenant].running++;
      return request;
    }
    if (shutdown_ && queue_.empty()) {
      return std::nullopt;
    }
    cv_.wait(lock);
  }
}

std::optional<WorkloadRequest> Scheduler::TryNext() {
  std::lock_guard<std::mutex> guard(mu_);
  const std::optional<size_t> pick = PickLocked();
  if (!pick.has_value()) {
    return std::nullopt;
  }
  WorkloadRequest request = std::move(queue_[*pick]);
  queue_.erase(queue_.begin() + static_cast<long>(*pick));
  tenants_[request.tenant].running++;
  return request;
}

void Scheduler::OnComplete(const std::string& tenant) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = tenants_.find(tenant);
  CVM_CHECK(it != tenants_.end()) << "OnComplete for unknown tenant " << tenant;
  CVM_CHECK_GT(it->second.running, 0);
  it->second.running--;
  it->second.completed++;
  stats_.completed++;
  cv_.notify_all();
}

void Scheduler::Requeue(WorkloadRequest request) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = tenants_.find(request.tenant);
  CVM_CHECK(it != tenants_.end()) << "Requeue for unknown tenant " << request.tenant;
  CVM_CHECK_GT(it->second.running, 0);
  it->second.running--;
  it->second.retried++;
  stats_.retried++;
  queue_.push_back(std::move(request));
  cv_.notify_all();
}

void Scheduler::Shutdown() {
  std::lock_guard<std::mutex> guard(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

void Scheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    if (!queue_.empty()) {
      return false;
    }
    for (const auto& [name, counts] : tenants_) {
      if (counts.running > 0) {
        return false;
      }
    }
    return true;
  });
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

std::map<std::string, TenantCounts> Scheduler::tenant_counts() const {
  std::lock_guard<std::mutex> guard(mu_);
  return tenants_;
}

}  // namespace cvm::svc
