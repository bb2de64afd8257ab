// The paper's prototype protocol: single-writer LRC with ownership transfer
// and no diffs. Each page has exactly one writable copy at a time; the
// page's home is the manager that serializes ownership transfers, so any
// request reaches the current owner in at most two hops. Write notices
// received at acquires invalidate every copy except the owner's, whose copy
// reflects the whole serialized write history of the page.
#ifndef CVM_PROTOCOL_SINGLE_WRITER_LRC_H_
#define CVM_PROTOCOL_SINGLE_WRITER_LRC_H_

#include <map>
#include <vector>

#include "src/protocol/coherence.h"

namespace cvm {

class SingleWriterLrc : public CoherenceProtocol {
 public:
  explicit SingleWriterLrc(ProtocolHost& host);

  ProtocolKind kind() const override { return ProtocolKind::kSingleWriterLrc; }
  bool single_writer_data() const override { return true; }

  void RegisterHandlers(MessageDispatcher& dispatcher) override;
  void OnReadFault(PageId page) override;
  void OnWriteFault(PageId page) override;
  void OnAccessComplete(PageId page) override;
  bool AccessWorkQueued() const override { return !pending_serves_.empty(); }
  void OnIntervalEnd() override;
  void ApplyWriteNotices(const IntervalRecord& record) override;

 protected:
  // ERC's eager-path re-application reuses the owner-aware invalidation.
  void InvalidateUnlessOwner(const std::vector<PageId>& pages);

 private:
  void OnPageRequest(const Message& msg);
  // Serves a request from this node's (owned, valid) copy; a want_write
  // request also transfers ownership.
  void ServePage(const PageRequestMsg& request);
  // A request forwarded by the manager: serve now, or park it behind the
  // ownership transfer that is still in flight to this node.
  void HandleForwardedPageRequest(const PageRequestMsg& request);
  void DrainPendingServes(PageId page);
  // Fetches for a faulting access and applies an ownership grant, if any.
  void FetchForAccess(PageId page, bool want_write);

  std::vector<bool> am_owner_;  // This node holds the page's only writable copy.
  // Manager state (meaningful on each page's home): the authoritative
  // current owner. The home serializes every transfer, so requests take at
  // most two hops (home, owner) — no ownership chasing.
  std::vector<NodeId> home_owner_;
  // Forwarded requests for pages whose ownership is still in flight to this
  // node; served once the ownership-granting reply is installed.
  std::map<PageId, std::vector<PageRequestMsg>> pending_serves_;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_SINGLE_WRITER_LRC_H_
