// Causal trace context: a tiny header stamped onto every DSM message when
// flow tracing is active, so exported traces can draw sender → receiver
// arrows (Perfetto flow events) and offline tools can reconstruct causal
// chains (lock-grant forwarding, barrier fans, detection rounds).
//
// The struct is an inert field of Message. Node stamps it only when
// TraceConfig::flow_events is active, and the network charges its wire bytes
// only when it is stamped, so tracing-off runs carry no extra bytes.
#ifndef CVM_OBS_TRACE_CONTEXT_H_
#define CVM_OBS_TRACE_CONTEXT_H_

#include <cstddef>
#include <cstdint>

#include "src/common/types.h"

namespace cvm::obs {

struct TraceContext {
  NodeId origin = -1;      // Node that started the causal chain.
  EpochId epoch = -1;      // Origin's epoch when the chain started.
  uint64_t causal_id = 0;  // Globally unique chain id; 0 = unstamped.

  // Model-side annotations — they ride along in-process but do not travel on
  // the modeled wire (kTraceContextWireBytes below excludes them).
  uint32_t hop = 0;          // 0 at the chain head; +1 per same-kind forward.
  uint64_t parent_id = 0;    // Chain being handled when this one was started.
  uint64_t send_sim_ns = 0;  // Sender's simulated clock at the (re)send.

  bool stamped() const { return causal_id != 0; }
};

// Wire cost of the context when it travels: origin (4) + epoch (4) +
// causal id (8). Charged by the network at send time, and only when the
// context is stamped — Figure-4 byte accounting stays honest either way.
inline constexpr size_t kTraceContextWireBytes = 16;

}  // namespace cvm::obs

#endif  // CVM_OBS_TRACE_CONTEXT_H_
