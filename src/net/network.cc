#include "src/net/network.h"

#include <chrono>
#include <thread>

#include "src/common/check.h"

namespace cvm {

namespace {

uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Adds `n` to a metrics counter, if metrics are attached.
void Bump(obs::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) {
    counter->Add(n);
  }
}

}  // namespace

Network::Network(int num_nodes)
    : num_nodes_(num_nodes), wire_by_sender_(static_cast<size_t>(num_nodes) + 1) {
  CVM_CHECK_GT(num_nodes, 0);
  inboxes_.reserve(num_nodes);
  dead_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
    dead_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

void Network::MarkNodeDead(NodeId node) {
  CVM_CHECK_GE(node, 0);
  CVM_CHECK_LT(node, num_nodes_);
  dead_[static_cast<size_t>(node)]->store(true, std::memory_order_release);
}

bool Network::NodeDead(NodeId node) const {
  if (node < 0 || node >= num_nodes_) {
    return false;
  }
  return dead_[static_cast<size_t>(node)]->load(std::memory_order_acquire);
}

void Network::AttachObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    msgs_total_ = metrics_->counter("net.messages");
    bytes_total_ = metrics_->counter("net.bytes");
    msg_bytes_hist_ = metrics_->histogram("net.msg_bytes");
    msg_latency_hist_ = metrics_->histogram("net.msg_latency_ns");
  }
}

void Network::AttachFaultInjector(const fault::FaultInjector* injector) {
  if (injector == nullptr || !injector->plan().enabled()) {
    injector_ = nullptr;
    return;
  }
  injector_ = injector;
  next_seq_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_), 0);
  if (metrics_ != nullptr) {
    fault_drops_ = metrics_->counter("net.fault.drops");
    fault_retransmits_ = metrics_->counter("net.fault.retransmits");
    fault_dup_drops_ = metrics_->counter("net.fault.dup_drops");
    fault_corrupt_ = metrics_->counter("net.fault.corrupt_quarantined");
    fault_unreachable_ = metrics_->counter("net.peer.unreachable");
    fault_backoff_hist_ = metrics_->histogram("net.fault.backoff_ns");
  }
}

void Network::AccountWire(const Message& message, size_t read_notice_bytes) {
  {
    // Per-kind and per-sender counts move together: one critical section.
    std::lock_guard<std::mutex> lock(stats_mu_);
    read_notice_bytes_ += read_notice_bytes;
    WireCount& kind = wire_by_kind_[message.payload.index()];
    kind.messages += 1;
    kind.bytes += message.wire_bytes;
    WireCount& sender = wire_by_sender_[static_cast<size_t>(message.from + 1)];
    sender.messages += 1;
    sender.bytes += message.wire_bytes;
  }

  if (msgs_total_ != nullptr) {
    msgs_total_->Increment();
    bytes_total_->Add(message.wire_bytes);
    msg_bytes_hist_->Observe(message.wire_bytes);
  }
  if (tracer_ != nullptr) {
    obs::TraceEvent event;
    event.name = "msg.send";
    event.cat = "net";
    event.phase = 'i';
    event.node = message.from >= 0 ? message.from : message.to;
    event.arg_name = "bytes";
    event.arg_value = message.wire_bytes;
    event.arg2_name = "to";
    event.arg2_value = static_cast<uint64_t>(message.to);
    event.str_arg_name = "kind";
    event.str_arg_value = message.KindName();
    tracer_->Emit(event);
  }
}

void Network::PushInbox(Message message) {
  Inbox& inbox = *inboxes_[message.to];
  std::lock_guard<std::mutex> lock(inbox.mu);
  inbox.queue.push_back(std::move(message));
  inbox.pending.store(inbox.queue.size(), std::memory_order_release);
}

SendOutcome Network::Send(Message message, uint32_t max_attempts) {
  CVM_CHECK_GE(message.to, 0);
  CVM_CHECK_LT(message.to, num_nodes_);
  CVM_CHECK_GE(message.from, kNoNode);
  CVM_CHECK_LT(message.from, num_nodes_);
  if (closed_.load(std::memory_order_acquire)) {
    return SendOutcome{SendOutcome::Status::kClosed, 0, 0};
  }
  if (NodeDead(message.from)) {
    // A dead node's frames die on its NIC; nothing leaves, nothing is billed.
    return SendOutcome{SendOutcome::Status::kPeerUnreachable, 0, 0};
  }
  // A stamped trace context is real header traffic: it travels, and is
  // charged, exactly when the sender stamped it. Retransmitted frames
  // re-carry it like any other header byte.
  message.wire_bytes = PayloadByteSize(message.payload) +
                       (message.ctx.stamped() ? obs::kTraceContextWireBytes : 0);
  if (msg_latency_hist_ != nullptr) {
    message.send_wall_ns = WallNs();  // Read only for the latency histogram.
  }
  if (injector_ != nullptr) {
    return SendReliable(std::move(message), max_attempts);
  }
  if (NodeDead(message.to)) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return UnreachableLocked(0, 1);
  }
  SendDirect(std::move(message));
  return SendOutcome{SendOutcome::Status::kDelivered, 0, 1};
}

void Network::SendDirect(Message message) {
  AccountWire(message, PayloadReadNoticeBytes(message.payload));
  PushInbox(std::move(message));
}

SendOutcome Network::UnreachableLocked(double penalty_ns, uint32_t attempts) {
  ++fstats_.unreachable;
  Bump(fault_unreachable_);
  return SendOutcome{SendOutcome::Status::kPeerUnreachable, penalty_ns, attempts};
}

SendOutcome Network::SendReliable(Message message, uint32_t max_attempts) {
  const NodeId from = message.from;
  const NodeId to = message.to;
  CVM_CHECK_GE(from, 0);  // Send checked the upper bound.
  const size_t rn_bytes = PayloadReadNoticeBytes(message.payload);
  const uint32_t budget = std::max<uint32_t>(1, injector_->plan().max_send_attempts);
  max_attempts = max_attempts == 0 ? budget : std::min(budget, max_attempts);
  std::lock_guard<std::mutex> lock(fault_mu_);
  const uint64_t seq = next_seq_[static_cast<size_t>(from) * static_cast<size_t>(num_nodes_) +
                                 static_cast<size_t>(to)]++;
  // Whether the receiver holds a copy of `seq`. The frame is pushed once, on
  // the way out, whatever the verdict.
  bool accepted = false;
  bool acked = false;
  double penalty_ns = 0;
  uint32_t attempt = 0;
  while (!acked && !closed() && !NodeDead(to) && !NodeDead(from) && attempt < max_attempts) {
    const fault::FaultDecision decision = injector_->OnSendAttempt(from, to, seq, attempt);
    ++fstats_.data_frames;
    AccountWire(message, rn_bytes);  // It left the sender's NIC.
    uint64_t dups = 0;
    if (!decision.deliver) {
      ++fstats_.drops;
      Bump(fault_drops_);
    } else if (decision.delay_hops > 0) {
      // Held in the network, so the sender times out and retransmits. The
      // held copy is modeled as always slower than the retransmission: it
      // surfaces after it as a suppressed duplicate, booked here.
      ++fstats_.delayed;
      penalty_ns += injector_->DelayNs(decision.delay_hops);
      dups = 1;
    } else if (decision.corrupt) {
      // Checksum failure: the receiver quarantines the frame (never visible
      // to the DSM handlers) and sends no ack, so the sender retransmits.
      ++fstats_.corrupted;
      Bump(fault_corrupt_);
    } else {
      uint64_t copies = 1;
      if (decision.duplicate) {
        ++fstats_.dup_frames;
        AccountWire(message, rn_bytes);
        copies = 2;
      }
      // The receiver keeps its first copy of `seq` and suppresses every later
      // one (a retransmit after a lost ack, an injected copy), acking each.
      dups = accepted ? copies : copies - 1;
      accepted = true;
      acked = !injector_->DropAck(from, to, seq, attempt);
      if (!acked) {
        fstats_.acks_dropped += copies;
      }
    }
    fstats_.dup_dropped += dups;
    Bump(fault_dup_drops_, dups);
    if (!acked) {
      // The (simulated) retransmission timeout fires: capped exponential
      // backoff, charged to the sender's clock by the caller.
      ++fstats_.retransmits;
      const double backoff_ns = injector_->BackoffNs(attempt);
      fstats_.backoff_ns += backoff_ns;
      penalty_ns += backoff_ns;
      if (fault_retransmits_ != nullptr) {
        fault_retransmits_->Increment();
        fault_backoff_hist_->Observe(static_cast<uint64_t>(backoff_ns));
      }
      if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.name = "msg.retransmit";
        event.cat = "net";
        event.phase = 'i';
        event.node = from;
        event.arg_name = "attempt";
        event.arg_value = attempt + 1;
        event.arg2_name = "to";
        event.arg2_value = static_cast<uint64_t>(to);
        event.str_arg_name = "kind";
        event.str_arg_value = message.KindName();
        tracer_->Emit(event);
      }
    }
    ++attempt;
  }
  if (accepted) {
    PushInbox(std::move(message));
  }
  if (acked || closed()) {
    // On shutdown a frame not yet accepted dies with the fabric.
    return SendOutcome{acked ? SendOutcome::Status::kDelivered : SendOutcome::Status::kClosed,
                       penalty_ns, attempt};
  }
  if (NodeDead(to) || NodeDead(from)) {
    // Fail-stopped peer: no ack will ever come. One full retransmission
    // timeout (BackoffNs saturates at rto_cap) models the suspicion delay.
    penalty_ns += injector_->BackoffNs(~0u);
  }
  // Else the budget is spent: the structural "peer never answers" signal
  // (message-level profiles heal far below it), surfaced, never an abort.
  return UnreachableLocked(penalty_ns, attempt);
}

void Network::OnDelivered(const Message& message) {
  // net.msg_latency_ns: host wall time from send to the pop, which happens on
  // the receiving node's own thread when it next polls or waits.
  if (msg_latency_hist_ != nullptr && message.send_wall_ns != 0) {
    const uint64_t now = WallNs();
    msg_latency_hist_->Observe(now > message.send_wall_ns ? now - message.send_wall_ns : 0);
  }
  if (tracer_ != nullptr) {
    obs::TraceEvent event;
    event.name = "msg.recv";
    event.cat = "net";
    event.phase = 'i';
    event.node = message.to;
    event.arg_name = "bytes";
    event.arg_value = message.wire_bytes;
    event.arg2_name = "from";
    event.arg2_value = static_cast<uint64_t>(message.from);
    event.str_arg_name = "kind";
    event.str_arg_value = message.KindName();
    tracer_->Emit(event);
  }
}

Message Network::PopLocked(Inbox& inbox, std::unique_lock<std::mutex>& lock) {
  Message message = std::move(inbox.queue.front());
  inbox.queue.pop_front();
  inbox.pending.store(inbox.queue.size(), std::memory_order_release);
  lock.unlock();
  OnDelivered(message);
  return message;
}

std::optional<Message> Network::Recv(NodeId node) { return RecvWait(node, std::nullopt); }

std::optional<Message> Network::RecvUntil(NodeId node,
                                          std::chrono::steady_clock::time_point deadline) {
  return RecvWait(node, deadline);
}

std::optional<Message> Network::RecvWait(
    NodeId node, std::optional<std::chrono::steady_clock::time_point> deadline) {
  CVM_CHECK_GE(node, 0);
  CVM_CHECK_LT(node, num_nodes_);
  Inbox& inbox = *inboxes_[node];
  // Poll, never park: a reply usually lands within microseconds, and taking
  // it here saves the futex sleep and the sender's cross-thread wake. Yield
  // between checks so that, with more node threads than cores, the poll
  // hands the core to the runnable peer it is waiting on.
  while (inbox.pending.load(std::memory_order_acquire) == 0 && !closed() &&
         (!deadline.has_value() || std::chrono::steady_clock::now() < *deadline)) {
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(inbox.mu);
  if (inbox.queue.empty()) {
    return std::nullopt;
  }
  return PopLocked(inbox, lock);
}

std::optional<Message> Network::TryRecv(NodeId node) {
  CVM_CHECK_GE(node, 0);
  CVM_CHECK_LT(node, num_nodes_);
  Inbox& inbox = *inboxes_[node];
  std::unique_lock<std::mutex> lock(inbox.mu);
  if (inbox.queue.empty()) {
    return std::nullopt;
  }
  return PopLocked(inbox, lock);
}

void Network::Close() {
  closed_.store(true, std::memory_order_release);
}

NetworkStats Network::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  NetworkStats stats;
  stats.read_notice_bytes = read_notice_bytes_;
  for (size_t k = 0; k < kNumPayloadKinds; ++k) {
    const WireCount& count = wire_by_kind_[k];
    if (count.messages == 0) {
      continue;
    }
    stats.messages += count.messages;
    stats.bytes += count.bytes;
    stats.messages_by_kind[PayloadKindName(k)] += count.messages;
    stats.bytes_by_kind[PayloadKindName(k)] += count.bytes;
  }
  for (size_t slot = 0; slot < wire_by_sender_.size(); ++slot) {
    const WireCount& count = wire_by_sender_[slot];
    if (count.messages == 0) {
      continue;
    }
    const NodeId sender = static_cast<NodeId>(slot) - 1;
    stats.messages_by_sender[sender] = count.messages;
    stats.bytes_by_sender[sender] = count.bytes;
  }
  return stats;
}

fault::FaultStats Network::fault_stats() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fstats_;
}

}  // namespace cvm
