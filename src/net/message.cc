#include "src/net/message.h"

namespace cvm {
namespace {

size_t IntervalsByteSize(const std::vector<IntervalRecord>& records) {
  size_t n = sizeof(uint32_t);
  for (const IntervalRecord& r : records) {
    n += r.ByteSize();
  }
  return n;
}

size_t IntervalsReadNoticeBytes(const std::vector<IntervalRecord>& records) {
  size_t n = 0;
  for (const IntervalRecord& r : records) {
    n += r.ReadNoticeByteSize();
  }
  return n;
}

// The combine-tree messages ship interval records with their vector clocks
// modeled run-length-encoded (barrier-time clocks are near-uniform), so one
// record costs O(runs) instead of O(nodes) on a tree edge.
size_t RleIntervalsByteSize(const std::vector<IntervalRecord>& records) {
  size_t n = sizeof(uint32_t);
  for (const IntervalRecord& r : records) {
    n += r.ByteSize() - r.vc.ByteSize() + r.vc.RleByteSize();
  }
  return n;
}

struct SizeVisitor {
  size_t operator()(const PageRequestMsg&) const { return 13; }
  size_t operator()(const PageReplyMsg& m) const { return 8 + (m.data ? m.data->size() : 0); }
  size_t operator()(const DiffFlushMsg& m) const {
    size_t n = 8;
    for (const Diff& d : m.diffs) {
      n += d.ByteSize();
    }
    return n;
  }
  size_t operator()(const DiffFlushAckMsg&) const { return 8; }
  size_t operator()(const LockRequestMsg& m) const { return 8 + m.requester_vc.ByteSize(); }
  size_t operator()(const LockGrantMsg& m) const {
    size_t n = 8 + m.releaser_vc.ByteSize() + IntervalsByteSize(m.intervals);
    for (const LockRequestMsg& r : m.handoff) {
      n += 9 + r.requester_vc.ByteSize();
    }
    return n;
  }
  size_t operator()(const BarrierArriveMsg& m) const {
    return 16 + m.vc.ByteSize() + IntervalsByteSize(m.intervals);
  }
  size_t operator()(const BitmapRequestMsg& m) const {
    return 8 + m.entries.size() * (sizeof(IntervalId) + sizeof(PageId));
  }
  static size_t BitmapEntriesBytes(const std::vector<BitmapReplyEntry>& entries) {
    size_t n = 0;
    for (const BitmapReplyEntry& e : entries) {
      n += sizeof(IntervalId) + sizeof(PageId) + e.read.WireBytes() + e.write.WireBytes();
    }
    return n;
  }
  size_t operator()(const BitmapReplyMsg& m) const { return 8 + BitmapEntriesBytes(m.entries); }
  size_t operator()(const CompareRequestMsg& m) const {
    size_t n = 8 + sizeof(uint32_t) + sizeof(uint64_t);
    for (const ComparePairEntry& p : m.pairs) {
      n += sizeof(uint32_t) + 2 * sizeof(IntervalId) + sizeof(uint32_t) +
           p.pages.size() * sizeof(PageId);
    }
    n += m.ships.size() * (sizeof(NodeId) + sizeof(IntervalId) + sizeof(PageId));
    return n;
  }
  size_t operator()(const BitmapShipMsg& m) const {
    return 8 + sizeof(uint64_t) + BitmapEntriesBytes(m.entries);
  }
  size_t operator()(const CompareReplyMsg& m) const {
    return 8 + sizeof(NodeId) + 4 * sizeof(uint64_t) +
           m.reports.size() * (sizeof(uint32_t) + 1 + sizeof(PageId) + sizeof(uint32_t) +
                               2 * sizeof(IntervalId));
  }
  size_t operator()(const BarrierReleaseMsg& m) const {
    return 16 + m.merged_vc.ByteSize() + IntervalsByteSize(m.intervals);
  }
  size_t operator()(const ErcUpdateMsg& m) const { return 8 + m.record.ByteSize(); }
  size_t operator()(const ErcAckMsg&) const { return 8; }
  size_t operator()(const HeartbeatProbeMsg&) const { return 12; }
  size_t operator()(const HeartbeatAckMsg&) const { return 12; }
  size_t operator()(const RunAbortMsg&) const { return 8; }
  size_t operator()(const BarrierTreeArriveMsg& m) const {
    size_t n = 16 + m.vc.RleByteSize() + m.min_vc.RleByteSize() + RleIntervalsByteSize(m.intervals);
    n += sizeof(uint32_t) + m.interest.size() * sizeof(PageId);
    n += sizeof(uint32_t);
    for (const TreeFragmentPair& f : m.fragments) {
      n += 2 * sizeof(IntervalId) + sizeof(uint32_t) + f.pages.size() * sizeof(PageId);
    }
    return n;
  }
  size_t operator()(const BarrierTreeReleaseMsg& m) const {
    return 16 + m.merged_vc.RleByteSize() + RleIntervalsByteSize(m.intervals);
  }
};

struct ReadNoticeVisitor {
  size_t operator()(const ErcUpdateMsg& m) const { return m.record.ReadNoticeByteSize(); }
  size_t operator()(const LockGrantMsg& m) const { return IntervalsReadNoticeBytes(m.intervals); }
  size_t operator()(const BarrierArriveMsg& m) const {
    return IntervalsReadNoticeBytes(m.intervals);
  }
  size_t operator()(const BarrierReleaseMsg& m) const {
    return IntervalsReadNoticeBytes(m.intervals);
  }
  size_t operator()(const BarrierTreeArriveMsg& m) const {
    return IntervalsReadNoticeBytes(m.intervals);
  }
  size_t operator()(const BarrierTreeReleaseMsg& m) const {
    return IntervalsReadNoticeBytes(m.intervals);
  }
  template <typename T>
  size_t operator()(const T&) const {
    return 0;
  }
};

// Kind names in Payload alternative order; indexed by Payload::index().
constexpr const char* kPayloadKindNames[kNumPayloadKinds] = {
    "PageRequest", "PageReply",      "DiffFlush",  "DiffFlushAck",
    "LockRequest", "LockGrant",      "BarrierArrive", "BitmapRequest",
    "BitmapReply", "CompareRequest", "BitmapShip", "CompareReply",
    "BarrierRelease", "ErcUpdate",   "ErcAck",     "HeartbeatProbe",
    "HeartbeatAck", "RunAbort",      "BarrierTreeArrive", "BarrierTreeRelease",
};

}  // namespace

size_t PayloadByteSize(const Payload& payload) {
  return kMessageHeaderBytes + std::visit(SizeVisitor{}, payload);
}

size_t PayloadReadNoticeBytes(const Payload& payload) {
  return std::visit(ReadNoticeVisitor{}, payload);
}

template <typename Msg>
  requires kIsAlternativeOf<Msg, Payload>
size_t PayloadByteSize(const Msg& message) {
  return kMessageHeaderBytes + SizeVisitor{}(message);
}

template <typename Msg>
  requires kIsAlternativeOf<Msg, Payload>
size_t PayloadReadNoticeBytes(const Msg& message) {
  return ReadNoticeVisitor{}(message);
}

#define CVM_PAYLOAD_ALTERNATIVES(X)                                                            \
  X(PageRequestMsg) X(PageReplyMsg) X(DiffFlushMsg) X(DiffFlushAckMsg) X(LockRequestMsg)       \
  X(LockGrantMsg) X(BarrierArriveMsg) X(BitmapRequestMsg) X(BitmapReplyMsg)                    \
  X(CompareRequestMsg) X(BitmapShipMsg) X(CompareReplyMsg) X(BarrierReleaseMsg)                \
  X(ErcUpdateMsg) X(ErcAckMsg) X(HeartbeatProbeMsg) X(HeartbeatAckMsg) X(RunAbortMsg)          \
  X(BarrierTreeArriveMsg) X(BarrierTreeReleaseMsg)
#define CVM_INSTANTIATE_SIZERS(Msg)                               \
  template size_t PayloadByteSize<Msg>(const Msg& message);       \
  template size_t PayloadReadNoticeBytes<Msg>(const Msg& message);
#define CVM_COUNT_ONE(Msg) +1
CVM_PAYLOAD_ALTERNATIVES(CVM_INSTANTIATE_SIZERS)
static_assert(0 CVM_PAYLOAD_ALTERNATIVES(CVM_COUNT_ONE) == kNumPayloadKinds,
              "instantiate the typed sizers for every Payload alternative");
#undef CVM_COUNT_ONE
#undef CVM_INSTANTIATE_SIZERS
#undef CVM_PAYLOAD_ALTERNATIVES

const char* PayloadKindName(size_t index) {
  return index < kNumPayloadKinds ? kPayloadKindNames[index] : "?";
}

const char* Message::KindName() const { return PayloadKindName(payload.index()); }

}  // namespace cvm
