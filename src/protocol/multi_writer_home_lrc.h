// Home-based multi-writer LRC: any node may write a page after twinning its
// copy; at interval end each writer diffs its copy against the twin and
// flushes the diff to the page's home, whose frame therefore always reflects
// every causally-required modification. Concurrent writers to disjoint words
// of one page proceed without ping-ponging ownership — the protocol family
// TreadMarks/CVM made standard.
#ifndef CVM_PROTOCOL_MULTI_WRITER_HOME_LRC_H_
#define CVM_PROTOCOL_MULTI_WRITER_HOME_LRC_H_

#include <set>

#include "src/protocol/coherence.h"

namespace cvm {

class MultiWriterHomeLrc : public CoherenceProtocol {
 public:
  explicit MultiWriterHomeLrc(ProtocolHost& host) : CoherenceProtocol(host) {}

  ProtocolKind kind() const override { return ProtocolKind::kMultiWriterHomeLrc; }
  bool single_writer_data() const override { return false; }

  void RegisterHandlers(MessageDispatcher& dispatcher) override;
  void OnReadFault(PageId page) override;
  void OnWriteFault(PageId page) override;
  void OnIntervalEnd() override;
  void ApplyWriteNotices(const IntervalRecord& record) override;

 private:
  // Diffs every twinned page against its twin, flushes non-empty diffs to
  // their homes, and blocks for acks. With diff-based write detection the
  // flush also mines this interval's write notices out of the diffs.
  void FlushDiffs();
  void OnPageRequest(const Message& msg);
  void OnDiffFlush(const Message& msg);
  void OnDiffFlushAck(const Message& msg);

  std::set<PageId> twinned_;  // Pages with an outstanding twin this interval.
  // Ack matching by token: an ack is consumed at most once, so re-delivered
  // acks cannot release a later flush wait early.
  std::set<uint64_t> flush_tokens_outstanding_;
  uint64_t flush_token_next_ = 1;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_MULTI_WRITER_HOME_LRC_H_
