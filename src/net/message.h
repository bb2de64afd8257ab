// Message types exchanged by DSM nodes. The fabric is in-process, but every
// payload has a byte-accurate wire size so bandwidth overheads (e.g. the
// marginal cost of read notices, Table 3) can be measured exactly.
#ifndef CVM_NET_MESSAGE_H_
#define CVM_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/obs/trace_context.h"
#include "src/protocol/interval.h"
#include "src/race/bitmap_codec.h"
#include "src/vc/vector_clock.h"

namespace cvm {

// ---- Page traffic (single-writer protocol + HLRC base copies) ----

struct PageRequestMsg {
  PageId page = -1;
  bool want_write = false;
  NodeId requester = kNoNode;  // Final reply destination (requests are forwarded).
  bool forwarded = false;      // Set once the home/manager has routed it.
};

struct PageReplyMsg {
  PageId page = -1;
  // The server's frame, by handle: both sides then hold it shared, and the
  // wire still carries (and charges) its page-size bytes.
  Frame data;
  bool grants_ownership = false;
};

// ---- Multi-writer (home-based) diff traffic ----

struct DiffFlushMsg {
  std::vector<Diff> diffs;
  uint64_t token = 0;  // Matches the ack.
};

struct DiffFlushAckMsg {
  uint64_t token = 0;
};

// ---- Lock traffic (TreadMarks-style distributed queue) ----

struct LockRequestMsg {
  LockId lock = -1;
  NodeId requester = kNoNode;
  VectorClock requester_vc;  // Lets the releaser send only unseen intervals.
  bool forwarded = false;    // Set once the manager has routed the request.
};

struct LockGrantMsg {
  LockId lock = -1;
  std::vector<IntervalRecord> intervals;  // Unseen by the requester.
  VectorClock releaser_vc;
  int64_t releaser_time_ps = 0;  // Simulated release timestamp.
  // Replay mode: still-queued requests travel with the token so the new
  // holder can grant them when their scheduled turn comes.
  std::vector<LockRequestMsg> handoff;
};

// ---- Barrier + race-detection rounds ----

struct BarrierArriveMsg {
  EpochId epoch = -1;
  NodeId node = kNoNode;
  std::vector<IntervalRecord> intervals;  // Unseen by the master.
  VectorClock vc;
  int64_t arrive_time_ps = 0;
};

// One entry of the check list (§4 step 3): a (interval, page) pair whose
// word bitmaps the master needs.
struct CheckEntry {
  IntervalId interval;
  PageId page = -1;
};

struct BitmapRequestMsg {
  EpochId epoch = -1;
  std::vector<CheckEntry> entries;
};

// One (interval, page) bitmap pair on the wire. Bitmaps travel encoded
// (src/race/bitmap_codec.h): kRaw reproduces the legacy full-page payload;
// with compression enabled the codec picks the smallest of the sparse /
// run-length / raw encodings per bitmap.
struct BitmapReplyEntry {
  IntervalId interval;
  PageId page = -1;
  EncodedBitmap read;
  EncodedBitmap write;
};

struct BitmapReplyMsg {
  EpochId epoch = -1;
  std::vector<BitmapReplyEntry> entries;
};

// ---- Distributed barrier-time compare (§6.3 "distributing the check") ----

// One check pair assigned to a constituent node: the node compares the two
// intervals' bitmaps over `pages` locally and ships back only reports.
// `pair_index` is the pair's position in the master's check list; the master
// merges remote reports back in pair_index order so the distributed report
// stream is byte-identical to the serial one.
struct ComparePairEntry {
  uint32_t pair_index = 0;
  IntervalId a;
  IntervalId b;
  std::vector<PageId> pages;
};

// Directs the receiving node to ship the bitmaps of one of its own
// (interval, page) entries to `dest`, the owner of a pair that needs them.
struct ShipDirective {
  NodeId dest = kNoNode;
  IntervalId interval;
  PageId page = -1;
};

// Master -> constituent node, one per epoch: the pairs this node owns, the
// bitmaps it must ship to other owners, and how many BitmapShipMsg messages
// to expect before its own compare can run.
struct CompareRequestMsg {
  EpochId epoch = -1;
  std::vector<ComparePairEntry> pairs;
  std::vector<ShipDirective> ships;
  uint32_t expected_ship_msgs = 0;
  int64_t request_time_ps = 0;  // Master's simulated clock at send.
};

// Peer -> pair owner: the encoded bitmaps the owner's compare needs.
struct BitmapShipMsg {
  EpochId epoch = -1;
  std::vector<BitmapReplyEntry> entries;
  int64_t send_time_ps = 0;  // Shipper's simulated clock at send.
};

// One remote race report, compactly: the master re-derives address/symbol.
struct RemoteReportEntry {
  uint32_t pair_index = 0;
  uint8_t kind = 0;  // RaceKind.
  PageId page = -1;
  uint32_t word = 0;
  IntervalId interval_a;
  IntervalId interval_b;
};

// Constituent node -> master: compare results plus accounting. Exactly one
// reply per CompareRequestMsg. `reply_time_ps` is the node's simulated clock
// after its compare work, so the master's Lamport-observe models the
// distributed round's critical path (max over nodes, not sum).
struct CompareReplyMsg {
  EpochId epoch = -1;
  NodeId node = kNoNode;
  std::vector<RemoteReportEntry> reports;
  uint64_t pairs_compared = 0;        // Bitmap pairs this node compared.
  uint64_t ship_bytes_wire = 0;       // Encoded bytes this node shipped out.
  uint64_t ship_bytes_raw = 0;        // Same entries at the legacy raw size.
  int64_t reply_time_ps = 0;
};

struct BarrierReleaseMsg {
  EpochId epoch = -1;
  std::vector<IntervalRecord> intervals;  // Unseen by this worker.
  VectorClock merged_vc;
  int64_t release_time_ps = 0;
};

// ---- Hierarchical (k-ary combine tree) barrier ----

// One pre-reduced check-list pair, produced at the tree node that is the
// LCA of the two intervals' owners: both full records are known there, so
// only the ids and the overlapping pages travel up the tree. The root
// rehydrates the records from its merged log.
struct TreeFragmentPair {
  IntervalId a;
  IntervalId b;
  std::vector<PageId> pages;
};

// Child subtree -> parent, one per barrier: the subtree's merged interval
// records, its element-wise max VC (what the subtree has seen) and min VC
// (what every member has seen — the parent tailors releases with it), and
// the check-list fragments claimed inside the subtree. Vector clocks are
// modeled run-length-encoded on the wire (barrier-time clocks are
// near-uniform), which is what keeps combine traffic sub-quadratic.
struct BarrierTreeArriveMsg {
  EpochId epoch = -1;
  NodeId node = kNoNode;  // The subtree root sending this.
  std::vector<IntervalRecord> intervals;
  VectorClock vc;      // Element-wise max over the subtree.
  VectorClock min_vc;  // Element-wise min over the subtree.
  std::vector<TreeFragmentPair> fragments;
  // Pages for which some subtree member holds a valid copy. The parent
  // forwards a release record down this edge only if one of its write
  // notices intersects the set — an absent page means every member's copy is
  // already invalid, so the notice would be a no-op there.
  std::vector<PageId> interest;
  int64_t arrive_time_ps = 0;
};

// Parent -> child subtree root: the records unseen by the child subtree's
// min VC plus the fully merged clock. Interior nodes re-tailor the payload
// per grandchild subtree before forwarding it down.
struct BarrierTreeReleaseMsg {
  EpochId epoch = -1;
  std::vector<IntervalRecord> intervals;
  VectorClock merged_vc;
  int64_t release_time_ps = 0;
};

// ---- Eager-RC traffic: notices pushed at release ----

struct ErcUpdateMsg {
  IntervalRecord record;  // The released interval; receivers invalidate.
  uint64_t token = 0;
};

struct ErcAckMsg {
  uint64_t token = 0;
};

// ---- Failure detection & run abort (docs/FAULTS.md "Crash faults") ----

// A node whose wait has gone quiet pings the peer it waits on. A
// live-but-slow peer answers with HeartbeatAckMsg; a dead peer's transport
// surfaces kPeerUnreachable to the prober, confirming the suspicion.
struct HeartbeatProbeMsg {
  EpochId epoch = -1;
  uint64_t token = 0;
};

struct HeartbeatAckMsg {
  EpochId epoch = -1;
  uint64_t token = 0;
};

// Broadcast by whichever survivor first confirms a dead peer: every node
// abandons epoch `epoch`, unwinds its application, and rolls back to its last
// checkpoint. Idempotent — later copies from other detectors are ignored.
struct RunAbortMsg {
  EpochId epoch = -1;
  NodeId dead = kNoNode;
};

using Payload = std::variant<PageRequestMsg, PageReplyMsg, DiffFlushMsg, DiffFlushAckMsg,
                             LockRequestMsg, LockGrantMsg, BarrierArriveMsg, BitmapRequestMsg,
                             BitmapReplyMsg, CompareRequestMsg, BitmapShipMsg, CompareReplyMsg,
                             BarrierReleaseMsg, ErcUpdateMsg, ErcAckMsg, HeartbeatProbeMsg,
                             HeartbeatAckMsg, RunAbortMsg, BarrierTreeArriveMsg,
                             BarrierTreeReleaseMsg>;

struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Payload payload;

  // Cached wire size (header + payload, plus the trace context when it is
  // stamped), filled by the network at send time.
  size_t wire_bytes = 0;

  // Wall-clock enqueue timestamp (ns, steady clock), filled by the network
  // at send time only while the delivery-latency histogram is attached (0
  // otherwise). Not part of the modeled wire size.
  uint64_t send_wall_ns = 0;

  // Causal flow context. Stamped by Node::Send (rich: epoch, parent chain,
  // forward inheritance) or by the network as a fallback, but only while
  // flow tracing is active; inert — and free on the modeled wire —
  // otherwise. When stamped, the network adds obs::kTraceContextWireBytes
  // to wire_bytes.
  obs::TraceContext ctx;

  const char* KindName() const;
};

// Number of payload alternatives; dispatch tables are indexed by
// Payload::index().
inline constexpr size_t kNumPayloadKinds = std::variant_size_v<Payload>;

// Stable kind name for a payload alternative index (see KindNameVisitor's
// table); "?" for an out-of-range index.
const char* PayloadKindName(size_t index);

// Byte-accurate payload sizes. Header cost is kMessageHeaderBytes.
inline constexpr size_t kMessageHeaderBytes = 32;

size_t PayloadByteSize(const Payload& payload);

// Bytes attributable to read notices inside the payload's interval records —
// the marginal bandwidth the paper's modification adds (Table 3 "Msg Ohead").
size_t PayloadReadNoticeBytes(const Payload& payload);

template <typename Msg, typename Variant>
inline constexpr bool kIsAlternativeOf = false;
template <typename Msg, typename... Alternatives>
inline constexpr bool kIsAlternativeOf<Msg, std::variant<Alternatives...>> =
    (std::is_same_v<Msg, Alternatives> || ...);

// Typed forms of the two sizers for one concrete message: the same counts as
// the Payload overloads, without copying the message into a variant first.
// Defined in message.cc for every Payload alternative.
template <typename Msg>
  requires kIsAlternativeOf<Msg, Payload>
size_t PayloadByteSize(const Msg& message);
template <typename Msg>
  requires kIsAlternativeOf<Msg, Payload>
size_t PayloadReadNoticeBytes(const Msg& message);

}  // namespace cvm

#endif  // CVM_NET_MESSAGE_H_
