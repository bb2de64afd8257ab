#include "src/dsm/lock_manager.h"

#include <utility>

#include "src/common/check.h"
#include "src/dsm/dsm.h"
#include "src/dsm/node.h"

namespace cvm {

LockManager::LockManager(Node& node)
    : node_(node),
      locks_(node.opts_.num_locks),
      manager_last_requester_(node.opts_.num_locks, kNoNode) {
  for (LockId l = 0; l < node_.opts_.num_locks; ++l) {
    locks_[l].token = (ManagerOf(l) == node_.id_);
    locks_[l].release_vc = VectorClock(node_.opts_.num_nodes);  // Nothing precedes it yet.
    manager_last_requester_[l] = ManagerOf(l);
  }
}

NodeId LockManager::ManagerOf(LockId lock) const { return lock % node_.opts_.num_nodes; }

void LockManager::RegisterHandlers(MessageDispatcher& dispatcher) {
  dispatcher.Register<LockRequestMsg>([this](const Message& msg) { OnLockRequest(msg); });
  dispatcher.Register<LockGrantMsg>([this](const Message& msg) { OnLockGrant(msg); });
}

void LockManager::Grant(LockId lock, NodeId requester, const VectorClock& requester_vc) {
  LockState& ls = locks_[lock];
  CVM_CHECK(ls.token);
  CVM_CHECK(!ls.held);
  const DsmOptions& opts = node_.opts_;
  if (opts.record_sync_order) {
    node_.system_->recorded_schedule().RecordGrant(lock, requester);
  }
  if (opts.replay_schedule != nullptr && opts.replay_schedule->NextGrantee(lock) == requester) {
    // Advance the replay cursor; past the schedule's end any order goes.
    const_cast<SyncSchedule*>(opts.replay_schedule)->ConsumeGrant(lock, requester);
  }
  if (requester == node_.id_) {
    ls.held = true;
    lock_granted_self_ = true;
    return;
  }
  ls.token = false;
  ls.successor = requester;
  LockGrantMsg grant;
  grant.lock = lock;
  if (opts.replay_schedule != nullptr) {
    grant.handoff = std::move(ls.pending);  // Queued requests follow the token.
    ls.pending.clear();
  }
  // Only intervals preceding the release travel with the grant; newer local
  // intervals are concurrent with the acquirer and must stay that way.
  for (IntervalRecord& record : node_.log_.UnseenBy(requester_vc)) {
    if (record.id.index <= ls.release_vc.At(record.id.node)) {
      grant.intervals.push_back(std::move(record));
    }
  }
  grant.releaser_vc = ls.release_vc;
  grant.releaser_time_ps = ls.release_time_ps;
  node_.Send(requester, std::move(grant));
}

void LockManager::TryGrantPending(LockId lock) {
  LockState& ls = locks_[lock];
  if (!ls.token || ls.held || ls.pending.empty()) {
    return;
  }
  size_t pick = ls.pending.size();
  if (node_.opts_.replay_schedule != nullptr) {
    const NodeId next = node_.opts_.replay_schedule->NextGrantee(lock);
    if (next == kNoNode) {
      pick = 0;
    } else {
      for (size_t i = 0; i < ls.pending.size(); ++i) {
        if (ls.pending[i].requester == next) {
          pick = i;
          break;
        }
      }
      if (pick == ls.pending.size()) {
        return;  // Hold the token until the scheduled requester asks.
      }
    }
  } else {
    pick = 0;
  }
  LockRequestMsg request = ls.pending[pick];
  ls.pending.erase(ls.pending.begin() + static_cast<int64_t>(pick));
  Grant(lock, request.requester, request.requester_vc);
}

void LockManager::Acquire(LockId lock) {
  LockState& ls = locks_[lock];
  const DsmOptions& opts = node_.opts_;
  const bool fast_path =
      ls.token && !ls.held &&
      (opts.replay_schedule != nullptr
           ? opts.replay_schedule->NextGrantee(lock) == node_.id_ ||
                 (opts.replay_schedule->NextGrantee(lock) == kNoNode && ls.pending.empty())
           : ls.pending.empty());
  if (fast_path) {
    Grant(lock, node_.id_, node_.vc_);
    lock_granted_self_ = false;
    return;
  }
  CVM_CHECK_EQ(waiting_lock_, -1);
  waiting_lock_ = lock;
  lock_granted_self_ = false;
  lock_grant_.reset();
  LockRequestMsg request;
  request.lock = lock;
  request.requester = node_.id_;
  request.requester_vc = node_.vc_;
  node_.ChargeMessage(PayloadByteSize(request), 0);
  node_.Send(ManagerOf(lock), std::move(request));
  node_.Await([this] { return lock_granted_self_ || lock_grant_.has_value(); });
  waiting_lock_ = -1;
  if (lock_grant_.has_value()) {
    LockGrantMsg grant = std::move(*lock_grant_);
    lock_grant_.reset();
    const size_t bytes = PayloadByteSize(grant);
    const size_t rn_bytes = PayloadReadNoticeBytes(grant);
    node_.timing_.ObserveAtLeast(grant.releaser_time_ps +
                                 NsToPs(opts.costs.MessageCost(bytes - rn_bytes)));
    if (rn_bytes > 0) {
      node_.timing_.Charge(Bucket::kCvmMods,
                           opts.costs.per_byte_ns * static_cast<double>(rn_bytes));
    }
    node_.ApplyIntervalRecords(grant.intervals);
    node_.vc_.MergeWith(grant.releaser_vc);
    LockState& state = locks_[lock];
    state.token = true;
    state.held = true;
    for (LockRequestMsg& queued : grant.handoff) {
      state.pending.push_back(std::move(queued));
    }
  }
  lock_granted_self_ = false;
}

LockManager::Snapshot LockManager::SnapshotState() const {
  Snapshot snapshot;
  snapshot.locks = locks_;
  snapshot.manager_last_requester = manager_last_requester_;
  return snapshot;
}

size_t LockManager::RestoreState(const Snapshot& snapshot) {
  CVM_CHECK_EQ(snapshot.locks.size(), locks_.size());
  size_t recovered = 0;
  for (size_t l = 0; l < locks_.size(); ++l) {
    const LockState& live = locks_[l];
    const LockState& saved = snapshot.locks[l];
    if (live.token != saved.token || live.held != saved.held ||
        live.successor != saved.successor ||
        live.pending.size() != saved.pending.size() ||
        manager_last_requester_[l] != snapshot.manager_last_requester[l]) {
      ++recovered;
    }
  }
  locks_ = snapshot.locks;
  manager_last_requester_ = snapshot.manager_last_requester;
  // Transient acquire state belongs to the torn epoch.
  lock_grant_.reset();
  lock_granted_self_ = false;
  waiting_lock_ = -1;
  return recovered;
}

void LockManager::Release(LockId lock) {
  LockState& ls = locks_[lock];
  ls.held = false;
  ls.release_vc = node_.vc_;  // The just-ended interval is the last one the
  ls.release_time_ps = node_.timing_.now_ps();  // acquirer is ordered after.
  TryGrantPending(lock);
}

void LockManager::HandleForwardedRequest(const LockRequestMsg& request) {
  locks_[request.lock].pending.push_back(request);
  TryGrantPending(request.lock);
}

void LockManager::OnLockRequest(const Message& msg) {
  const auto& request = std::get<LockRequestMsg>(msg.payload);
  if (node_.opts_.replay_schedule != nullptr) {
    // Replay routing: out-of-schedule grants break the last-requester chain
    // invariant, so requests instead chase the token along successor links
    // until they reach the current holder, and queue there.
    LockState& ls = locks_[request.lock];
    if (ls.token) {
      LockRequestMsg queued = request;
      queued.forwarded = true;
      HandleForwardedRequest(queued);
      return;
    }
    NodeId target = ls.successor;
    if (target == kNoNode || target == node_.id_) {
      target = ManagerOf(request.lock);
    }
    CVM_CHECK_NE(target, node_.id_)
        << "token successor chain broken for lock " << request.lock;
    LockRequestMsg forwarded = request;
    forwarded.forwarded = true;
    node_.Send(target, forwarded);
    return;
  }
  if (!request.forwarded) {
    CVM_CHECK_EQ(ManagerOf(request.lock), node_.id_);
    const NodeId target = manager_last_requester_[request.lock];
    manager_last_requester_[request.lock] = request.requester;
    LockRequestMsg forwarded = request;
    forwarded.forwarded = true;
    if (target == node_.id_) {
      HandleForwardedRequest(forwarded);
    } else {
      node_.Send(target, forwarded);
    }
  } else {
    HandleForwardedRequest(request);
  }
}

void LockManager::OnLockGrant(const Message& msg) {
  const auto& grant = std::get<LockGrantMsg>(msg.payload);
  if (waiting_lock_ != grant.lock || lock_grant_.has_value()) {
    return;  // Matches no outstanding acquire: stale re-delivery.
  }
  lock_grant_ = grant;
}

}  // namespace cvm
