// Configuration for the observability layer (tracing + metrics). The hooks
// are always compiled in; each is switched on or off at run time by the
// fields below. A disabled hook costs one null-pointer check at its site.
#ifndef CVM_OBS_TRACE_CONFIG_H_
#define CVM_OBS_TRACE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace cvm::obs {

struct TraceConfig {
  // Event tracing (Chrome trace-event JSON, viewable in Perfetto).
  bool trace_enabled = false;
  // Per-epoch metrics time series (CSV/JSON).
  bool metrics_enabled = false;

  // Stamp a TraceContext on every DSM message and emit Perfetto flow events
  // ('s'/'t'/'f') linking the sender's and receiver's tracks. Only active
  // together with trace_enabled. Adds kTraceContextWireBytes to each
  // message's modeled wire size while active.
  bool flow_events = true;

  // Keep every Nth event per node ring (1 = keep all). Sampling is safe for
  // the exported format because spans are emitted as single complete ('X')
  // events, never as begin/end pairs that could be separated.
  uint32_t sample_period = 1;

  // Per-node ring capacity in events. The ring is drained at every barrier;
  // overflow between barriers overwrites the oldest events and counts them
  // as dropped.
  size_t ring_capacity = 1 << 14;

  // Snapshot the metrics registry every N barrier epochs (1 = every epoch),
  // and always at the run's final barrier.
  int metrics_interval = 1;

  bool enabled() const { return trace_enabled || metrics_enabled; }
};

}  // namespace cvm::obs

#endif  // CVM_OBS_TRACE_CONFIG_H_
