// Eager release consistency (§3.1's ERC): single-writer data movement as in
// SingleWriterLrc, but at every release the just-closed interval's write
// notices are pushed to every node and the releaser blocks for
// acknowledgements — the cost LRC's central intuition avoids. The ablation
// that motivates lazy release consistency.
#ifndef CVM_PROTOCOL_EAGER_RC_H_
#define CVM_PROTOCOL_EAGER_RC_H_

#include <set>

#include "src/protocol/single_writer_lrc.h"

namespace cvm {

class EagerRcInvalidate : public SingleWriterLrc {
 public:
  explicit EagerRcInvalidate(ProtocolHost& host) : SingleWriterLrc(host) {}

  ProtocolKind kind() const override { return ProtocolKind::kEagerRcInvalidate; }

  void RegisterHandlers(MessageDispatcher& dispatcher) override;
  void OnIntervalPublished(const IntervalRecord& record) override;
  void OnDuplicateRecord(const IntervalRecord& record) override;
  void OnGarbageCollect(const VectorClock& vc) override;

 private:
  void OnErcUpdate(const Message& msg);
  void OnErcAck(const Message& msg);

  // Ack matching by token: an ack is consumed at most once, so re-delivered
  // acks cannot release a wait early.
  std::set<uint64_t> tokens_outstanding_;
  uint64_t token_next_ = 1;
  // Records whose write notices were applied ONLY eagerly (ERC push). An
  // eager invalidation can race with an in-flight page fetch — the install
  // revalidates the copy after the invalidation landed — so the notice must
  // be re-applied at the next acquire that covers the record.
  std::set<IntervalId> eager_only_;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_EAGER_RC_H_
