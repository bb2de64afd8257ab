// Distributed lock engine, extracted from the node monolith: token-based
// locks with a per-lock manager (lock % num_nodes) that forwards requests
// along the last-requester chain, happens-before-1 interval shipping on
// grants, and the §6.1 record/replay grant ordering. One LockManager per
// node; every method runs on the node's own thread, the handlers included.
#ifndef CVM_DSM_LOCK_MANAGER_H_
#define CVM_DSM_LOCK_MANAGER_H_

#include <optional>
#include <vector>

#include "src/common/types.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/vc/vector_clock.h"

namespace cvm {

class Node;

class LockManager {
 public:
  explicit LockManager(Node& node);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Registers the lock request/grant handlers.
  void RegisterHandlers(MessageDispatcher& dispatcher);

  // Blocking acquire, called from Node::Lock with the pre-acquire interval
  // already closed. Serves the inbox while it waits (Node::Await). On return
  // the lock is held and the grant's interval records have been applied.
  void Acquire(LockId lock);

  // Release bookkeeping: snapshots the release vector clock/time (the grant
  // source for the next acquirer) and hands the token on if requests are
  // queued. Caller has already closed the releasing interval.
  void Release(LockId lock);

  bool Held(LockId lock) const { return locks_[lock].held; }

  struct Snapshot;

  // Epoch-checkpoint support (docs/FAULTS.md "Crash faults & recovery"):
  // lock ownership is part of the consistent cut. SnapshotState copies every
  // lock's token/queue/release state; RestoreState rolls back to it after a
  // crash, dropping transient acquire slots, and returns how many locks had
  // diverged from the checkpoint (in-flight tokens, queued requests from the
  // torn epoch) — the "recovered" count surfaced as dsm.lock.recovered.
  Snapshot SnapshotState() const;
  size_t RestoreState(const Snapshot& snapshot);

 private:
  struct LockState {
    bool token = false;  // This node holds the lock token.
    bool held = false;   // The app currently holds the lock.
    std::vector<LockRequestMsg> pending;  // Forwarded, ungranted requests.
    // Replay routing: the node this one last granted the token to. Requests
    // follow successor links to the current holder in replay mode.
    NodeId successor = kNoNode;
    // Snapshot taken at the most recent release. A grant must carry only
    // intervals that precede the RELEASE — happens-before-1 orders the
    // acquirer after the release, not after whatever the releaser did next.
    // Granting from live state would falsely order post-release intervals
    // and mask races (e.g. an unlocked write right after an unlock).
    VectorClock release_vc;
    int64_t release_time_ps = 0;
  };

  void Grant(LockId lock, NodeId requester, const VectorClock& requester_vc);
  void TryGrantPending(LockId lock);
  void HandleForwardedRequest(const LockRequestMsg& request);
  void OnLockRequest(const Message& msg);
  void OnLockGrant(const Message& msg);

  NodeId ManagerOf(LockId lock) const;

  Node& node_;
  std::vector<LockState> locks_;
  std::vector<NodeId> manager_last_requester_;  // Valid where this node manages.

  // Reply slot for the single outstanding acquire (a node has at most one
  // at a time). The grant handler tolerates grants matching no
  // outstanding acquire — stale re-deliveries.
  std::optional<LockGrantMsg> lock_grant_;
  bool lock_granted_self_ = false;  // Token granted locally (no payload).
  LockId waiting_lock_ = -1;
};

struct LockManager::Snapshot {
  std::vector<LockState> locks;
  std::vector<NodeId> manager_last_requester;
};

}  // namespace cvm

#endif  // CVM_DSM_LOCK_MANAGER_H_
