// In-process message fabric connecting the DSM nodes: one inbox per node,
// FIFO per sender-receiver pair (delivery is FIFO overall per inbox), with
// global byte/count accounting used by the evaluation harness.
//
// With a FaultInjector attached (src/fault/), every send runs through a
// reliable transport: per-pair sequence numbers, synchronous acks that the
// injector may destroy, timeout-driven retransmission with capped exponential
// backoff (timeouts are simulated time, derived from the cost model, so the
// retransmit schedule is deterministic in the fault seed) and receiver-side
// duplicate suppression. A send is one closed form over the injector's
// decisions for its (from, to, seq, attempt): it finishes before it returns,
// and its frame lands in the inbox at most once. The inboxes therefore see
// exactly-once FIFO delivery per pair even under loss — the guarantee the
// race-detection protocol assumes. Without an injector the send path is
// byte-for-byte identical to the clean fabric.
//
// Contract: each (sender, receiver) pair has one sending thread at a time —
// node `from`'s own thread (or one test thread). Per-pair FIFO rests on it:
// the transport keeps no reorder buffer, so two threads racing on one pair
// would land their frames in whichever order they finish.
#ifndef CVM_NET_NETWORK_H_
#define CVM_NET_NETWORK_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace cvm {

// Aggregate traffic statistics; snapshot with Network::stats(). The network
// counts per payload kind and per sender under one lock and builds the
// totals from the per-kind counts, so any snapshot satisfies
// messages == sum(messages_by_kind) and bytes == sum(bytes_by_kind). Under
// fault injection these count every transmission attempt (retransmits and
// duplicates are real wire traffic); the clean path counts each message
// exactly once, as before.
struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t read_notice_bytes = 0;
  std::map<std::string, uint64_t> messages_by_kind;
  std::map<std::string, uint64_t> bytes_by_kind;
  // Per-sender traffic, keyed by NodeId. Lets refactor-invariance tests pin
  // down which node's behaviour changed, not just the global totals.
  std::map<NodeId, uint64_t> messages_by_sender;
  std::map<NodeId, uint64_t> bytes_by_sender;
};

// Structured result of one Send. The transport never aborts the process: a
// send either reaches the receiver's inbox (kDelivered), exhausts its bounded
// retransmission budget or hits a dead peer (kPeerUnreachable — the
// peer-suspicion verdict the caller must surface, docs/FAULTS.md "Crash
// faults & recovery"), or dies with the fabric (kClosed).
struct SendOutcome {
  enum class Status : uint8_t {
    kDelivered,        // In the receiver's inbox (exactly-once FIFO).
    kPeerUnreachable,  // Peer dead or max_send_attempts exhausted.
    kClosed,           // Fabric closed mid-send; the frame died with it.
  };
  Status status = Status::kDelivered;
  // Simulated-time penalty (retransmission backoff + injected delay +
  // suspicion timeout) the sender should charge to its clock.
  double penalty_ns = 0;
  uint32_t attempts = 1;  // Transmission attempts made.

  bool delivered() const { return status == Status::kDelivered; }
  bool unreachable() const { return status == Status::kPeerUnreachable; }
};

class Network {
 public:
  explicit Network(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  // Optional observability sinks (owned by the caller, outliving the
  // network). Either pointer may be null. Call before traffic starts.
  void AttachObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Enables the reliable transport, consulting `injector` (caller-owned,
  // outliving the network) on every transmission attempt. Call before
  // traffic starts. A null injector or a disabled plan keeps the clean path.
  void AttachFaultInjector(const fault::FaultInjector* injector);

  // Sends `message` to message.to; fills in wire_bytes (the payload, plus
  // kTraceContextWireBytes when message.ctx is stamped) and updates stats.
  // See SendOutcome for the ways a send can finish; on the clean path it is
  // always kDelivered with zero penalty (or kClosed after Close()). A nonzero
  // `max_attempts` caps the reliable transport below the plan's budget.
  SendOutcome Send(Message message, uint32_t max_attempts = 0);

  // Fail-stop `node`: frames from it die on its NIC, frames to it are never
  // acked, so in-flight and future sends to it surface kPeerUnreachable
  // after a bounded suspicion timeout instead of retransmitting forever.
  void MarkNodeDead(NodeId node);
  bool NodeDead(NodeId node) const;

  // Blocking receive for `node`. It polls the inbox, yielding the core
  // between checks, until a frame lands or the fabric closes; it never
  // parks, so a waiting node takes its next frame without a futex sleep and
  // wake (docs/PERFORMANCE.md section 4, "Waiting"). After Close() it still
  // returns the frames already queued, then nullopt.
  std::optional<Message> Recv(NodeId node);

  // Recv that gives up at `deadline` (wall clock): nullopt if nothing was
  // queued by then, or once the fabric is closed and drained.
  std::optional<Message> RecvUntil(NodeId node, std::chrono::steady_clock::time_point deadline);

  // Non-blocking receive.
  std::optional<Message> TryRecv(NodeId node);

  // The number of frames in `node`'s inbox, readable without the inbox
  // lock. It lives as long as the network, so the node's access path keeps
  // a reference and polls it (one atomic load) on every instrumented access.
  const std::atomic<size_t>& PendingCount(NodeId node) const {
    return inboxes_[static_cast<size_t>(node)]->pending;
  }

  // Ends every blocked receive with "closed"; later Sends are dropped.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  NetworkStats stats() const;
  fault::FaultStats fault_stats() const;

 private:
  struct Inbox {
    std::mutex mu;
    std::deque<Message> queue;
    // queue.size(), written under mu on every push and pop so PendingCount
    // readers need not take the lock.
    std::atomic<size_t> pending{0};
  };

  // Shared body of Recv (no deadline) and RecvUntil: the yield-poll.
  std::optional<Message> RecvWait(NodeId node,
                                  std::optional<std::chrono::steady_clock::time_point> deadline);

  // Pops the front frame (inbox.mu held by `lock`, queue non-empty), then
  // drops the lock for the delivery observability.
  Message PopLocked(Inbox& inbox, std::unique_lock<std::mutex>& lock);

  void OnDelivered(const Message& message);

  // Clean path: the pre-fault send, byte-for-byte.
  void SendDirect(Message message);
  // Reliable path: bounded retransmission, peer-suspicion verdicts.
  SendOutcome SendReliable(Message message, uint32_t max_attempts);
  // Books one abandoned send (fault_mu_ held) and builds its verdict.
  SendOutcome UnreachableLocked(double penalty_ns, uint32_t attempts);

  // Wire accounting + msg.send trace event for one transmission attempt.
  void AccountWire(const Message& message, size_t read_notice_bytes);
  void PushInbox(Message message);

  const int num_nodes_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;

  // Fail-stopped nodes (crash faults). Atomic so the send hot path reads it
  // without a lock; written only by MarkNodeDead.
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;

  // Closed flag, read lock-free by every receive's poll.
  std::atomic<bool> closed_{false};

  // Wire traffic, counted under stats_mu_ into arrays indexed by payload
  // kind and by sender + 1 (slot 0: no sender); stats() builds the
  // NetworkStats maps from them.
  struct WireCount {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  mutable std::mutex stats_mu_;
  uint64_t read_notice_bytes_ = 0;
  std::array<WireCount, kNumPayloadKinds> wire_by_kind_ = {};
  std::vector<WireCount> wire_by_sender_;

  // Reliable transport (null injector = clean path). Lock order:
  // fault_mu_ -> stats_mu_ / inbox.mu; Recv takes only inbox.mu.
  const fault::FaultInjector* injector_ = nullptr;
  mutable std::mutex fault_mu_;
  // Next sequence number per (sender, receiver), indexed from * n + to.
  std::vector<uint64_t> next_seq_;
  fault::FaultStats fstats_;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* msgs_total_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  obs::Histogram* msg_bytes_hist_ = nullptr;
  obs::Histogram* msg_latency_hist_ = nullptr;
  obs::Counter* fault_drops_ = nullptr;
  obs::Counter* fault_retransmits_ = nullptr;
  obs::Counter* fault_dup_drops_ = nullptr;
  obs::Counter* fault_corrupt_ = nullptr;
  obs::Counter* fault_unreachable_ = nullptr;
  obs::Histogram* fault_backoff_hist_ = nullptr;
};

}  // namespace cvm

#endif  // CVM_NET_NETWORK_H_
