#include "src/protocol/eager_rc.h"

#include <utility>

#include "src/common/check.h"

namespace cvm {

void EagerRcInvalidate::RegisterHandlers(MessageDispatcher& dispatcher) {
  SingleWriterLrc::RegisterHandlers(dispatcher);
  dispatcher.Register<ErcUpdateMsg>([this](const Message& msg) { OnErcUpdate(msg); });
  dispatcher.Register<ErcAckMsg>([this](const Message& msg) { OnErcAck(msg); });
}

void EagerRcInvalidate::OnIntervalPublished(const IntervalRecord& record) {
  // Push the notices to every node NOW and block for acks — the cost LRC's
  // central intuition avoids ("competing accesses in correct programs will
  // be separated by synchronization", so notices can ride on later
  // synchronization messages instead).
  if (record.write_pages.empty() || host_.num_nodes() <= 1) {
    return;
  }
  CVM_CHECK(tokens_outstanding_.empty());
  for (NodeId n = 0; n < host_.num_nodes(); ++n) {
    if (n == host_.self()) {
      continue;
    }
    ErcUpdateMsg update;
    update.record = record;
    update.token = token_next_++;
    tokens_outstanding_.insert(update.token);
    const size_t bytes = PayloadByteSize(update);
    const size_t rn_bytes = PayloadReadNoticeBytes(update);
    host_.ChargeMessage(bytes, rn_bytes);
    host_.Send(n, std::move(update));
  }
  // One ack round-trip of latency (pushes proceed in parallel).
  host_.timing().Charge(Bucket::kNone, host_.costs().MessageCost(kMessageHeaderBytes + 8));
  host_.Await([this] { return tokens_outstanding_.empty(); });
}

void EagerRcInvalidate::OnDuplicateRecord(const IntervalRecord& record) {
  // Already applied — unless it only arrived via an eager push, whose
  // invalidation may have been overtaken by an in-flight fetch install.
  // This acquire covers the record, so apply the notices here, once.
  auto eager = eager_only_.find(record.id);
  if (eager == eager_only_.end()) {
    return;
  }
  eager_only_.erase(eager);
  InvalidateUnlessOwner(record.write_pages);
}

void EagerRcInvalidate::OnGarbageCollect(const VectorClock& vc) {
  for (auto it = eager_only_.begin(); it != eager_only_.end();) {
    it = (it->index <= vc.At(it->node)) ? eager_only_.erase(it) : std::next(it);
  }
}

void EagerRcInvalidate::OnErcUpdate(const Message& msg) {
  const auto& update = std::get<ErcUpdateMsg>(msg.payload);
  if (!host_.log().Contains(update.record.id)) {
    host_.log().Insert(update.record);
    if (update.record.id.node != host_.self()) {
      eager_only_.insert(update.record.id);
      InvalidateUnlessOwner(update.record.write_pages);
    }
  }
  // No vector-clock merge: ERC moves data eagerly, but synchronization
  // ordering — what the race detector consumes — still comes only from
  // lock grants and barriers.
  host_.Send(msg.from, ErcAckMsg{update.token});
}

void EagerRcInvalidate::OnErcAck(const Message& msg) {
  const auto& ack = std::get<ErcAckMsg>(msg.payload);
  tokens_outstanding_.erase(ack.token);  // A stale re-delivery erases nothing.
}

}  // namespace cvm
