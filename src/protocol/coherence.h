// The coherence-protocol strategy layer. A CoherenceProtocol owns every
// protocol-specific decision the node used to branch on: page-fault handling,
// interval-end actions (diff flushing vs page downgrade vs eager pushes),
// write-notice application at acquires, and the protocol's share of the
// message vocabulary (page traffic, diff flushes, ERC updates). The node
// core talks to the protocol only through this interface; the protocol talks
// back through ProtocolHost, the narrow view of node state it is allowed to
// touch.
//
// Threading contract: everything here runs on the host node's one thread,
// so nothing is locked. The fault, interval-end and publish hooks may block,
// but only through ProtocolHost::Await, which keeps dispatching inbound
// frames — this node's own handlers included — until the awaited reply
// lands. Message handlers (registered via RegisterHandlers) never block;
// that is the property that keeps the node graph deadlock-free.
#ifndef CVM_PROTOCOL_COHERENCE_H_
#define CVM_PROTOCOL_COHERENCE_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/common/flat_id_set.h"
#include "src/common/types.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/obs/tracer.h"
#include "src/protocol/interval.h"
#include "src/protocol/protocol_kind.h"
#include "src/sim/cost_model.h"

namespace cvm {

// The slice of node state and services a coherence protocol may use. The
// node implements this; keeping it an interface (rather than handing the
// protocol the whole Node) is what makes the protocol layer independently
// testable and keeps src/protocol/ free of src/dsm/ includes.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  virtual NodeId self() const = 0;
  virtual int num_nodes() const = 0;
  virtual uint64_t page_size() const = 0;
  virtual const CostParams& costs() const = 0;
  virtual WriteDetection write_detection() const = 0;

  virtual PageTable& pages() = 0;
  virtual BitmapStore& bitmaps() = 0;
  virtual IntervalLog& log() = 0;
  virtual NodeTiming& timing() = 0;

  virtual IntervalIndex current_interval() const = 0;
  virtual EpochId current_epoch() const = 0;
  // Pages written in the current interval (the pending write notices),
  // ascending. A flat sorted set: Clear() keeps its storage, so steady-state
  // intervals track writes without allocating.
  virtual const FlatIdSet<PageId>& current_writes() const = 0;
  // Adds `page` to the current interval's write-notice set.
  virtual void NoteWrite(PageId page) = 0;

  virtual void Send(NodeId to, Payload payload) = 0;
  // The one blocking primitive: dispatches inbound frames until ready()
  // holds (handlers fill the reply slots it tests). Throws RunAbortError
  // (src/common/abort.h) if a peer's fail-stop tears the run first, so a
  // survivor waiting on a dead node unwinds instead of waiting forever.
  // Never call it from a message handler.
  virtual void Await(const std::function<bool()>& ready) = 0;
  // Charges one message's modeled cost to the node clock, splitting off the
  // read-notice share into the paper's "CVM Mods" bucket.
  virtual void ChargeMessage(size_t bytes, size_t read_notice_bytes) = 0;

  // Pristine initial contents of `page` (for lazily materialized homes), or
  // null if the page starts all-zero.
  virtual const std::vector<uint8_t>* PokedPage(PageId page) = 0;
  // The system's one all-zero frame, which every holder keeps shared.
  virtual const Frame& zero_frame() = 0;

  // Observability (null/no-op when disabled).
  virtual obs::Tracer* tracer() = 0;
  virtual DiffObs* diff_obs() = 0;
  virtual void CountPageFetch() = 0;
  virtual void TraceInstant(const char* name, const char* cat, const char* arg_name = nullptr,
                            uint64_t arg_value = 0) = 0;
};

class CoherenceProtocol {
 public:
  static std::unique_ptr<CoherenceProtocol> Make(ProtocolKind kind, ProtocolHost& host);

  virtual ~CoherenceProtocol();

  CoherenceProtocol(const CoherenceProtocol&) = delete;
  CoherenceProtocol& operator=(const CoherenceProtocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ProtocolKindName(kind()); }

  // True for protocols using single-writer data movement (LRC-lazy or ERC):
  // ownership transfer, page served by its current owner. False for the
  // home-based multi-writer protocol.
  virtual bool single_writer_data() const = 0;

  // Registers this protocol's message handlers. The base registers the
  // PageReply slot-filler; subclasses add their request/diff/update traffic.
  // Kinds a protocol does not register are surfaced by the dispatcher as
  // unhandled rather than silently dropped.
  virtual void RegisterHandlers(MessageDispatcher& dispatcher);

  // Page-fault paths, called from the access path with the fault prologue
  // (fault count, span, page_fault_ns) already charged. May block on fetches.
  virtual void OnReadFault(PageId page) = 0;
  virtual void OnWriteFault(PageId page) = 0;

  // Called after each completed shared access. The single-writer family
  // drains page requests that were parked behind an in-flight ownership
  // transfer.
  virtual void OnAccessComplete(PageId page) { (void)page; }
  // True while OnAccessComplete has queued work. The node's page cache skips
  // OnAccessComplete on a hit, so it caches a page only while this is false.
  virtual bool AccessWorkQueued() const { return false; }

  // Interval-end hook, invoked BEFORE the interval record is built: the
  // multi-writer protocol flushes diffs here (possibly mining write notices
  // into the record), the single-writer family downgrades written pages so
  // the next interval's first write faults again.
  virtual void OnIntervalEnd() = 0;

  // Invoked AFTER the record is built, logged, and charged. ERC pushes the
  // record to every node here and blocks for acknowledgements.
  virtual void OnIntervalPublished(const IntervalRecord& record) { (void)record; }

  // Applies one freshly-logged remote record's write notices (invalidation).
  virtual void ApplyWriteNotices(const IntervalRecord& record) = 0;

  // A record already in the log arrived again on an acquire. ERC re-applies
  // notices that had only been seen via an eager push (an eager invalidation
  // can be overtaken by an in-flight fetch install).
  virtual void OnDuplicateRecord(const IntervalRecord& record) { (void)record; }

  // Epoch garbage collection: drop protocol bookkeeping dominated by `vc`.
  virtual void OnGarbageCollect(const VectorClock& vc) { (void)vc; }

 protected:
  explicit CoherenceProtocol(ProtocolHost& host);

  NodeId HomeOf(PageId page) const { return page % host_.num_nodes(); }

  // Lazily initializes (or locally revalidates) this node's home frame. A
  // page that starts all-zero installs the shared zero frame, which costs no
  // storage until someone writes the page.
  void MaterializeHome(PageId page);

  // Blocking fetch through the page's home: sends the request, waits for the
  // reply slot, charges the round trip, installs with `install_state`.
  // Returns true if the reply granted single-writer ownership.
  bool FetchPage(PageId page, bool want_write, PageState install_state);

  ProtocolHost& host_;

 private:
  void OnPageReply(Message& msg);

  std::vector<bool> home_materialized_;  // Home frames lazily initialized.
  // Reply slot for the single outstanding fetch (a node has at most one).
  // The handler tolerates replies matching no outstanding fetch.
  std::optional<PageReplyMsg> page_reply_;
  PageId page_fetch_pending_ = -1;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_COHERENCE_H_
