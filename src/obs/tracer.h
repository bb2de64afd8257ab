// Structured event tracer: one fixed-capacity ring buffer per node, written
// by that node's thread under a per-ring mutex (uncontended in practice —
// "lock-free-ish"), drained into a global store at barriers, and
// exported as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing.
//
// Every event can carry both a simulated timestamp (the cost model's
// deterministic clock) and a wall timestamp; the exporter renders them as
// two separate process tracks ("simulated time" pid 0, "wall time" pid 1)
// with one thread track per node in each.
#ifndef CVM_OBS_TRACER_H_
#define CVM_OBS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/trace_config.h"

namespace cvm::obs {

// Event names and categories must be string literals (or otherwise outlive
// the tracer): events store the pointers, never copies.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  // 'X' = complete span, 'i' = instant, 'C' = counter, and the Perfetto flow
  // phases 's' (start), 't' (step), 'f' (finish) which carry flow_id.
  char phase = 'i';
  NodeId node = 0;         // Thread track within each process track.
  EpochId epoch = -1;      // -1 = not epoch-scoped (omitted from args).

  // Causal chain id for flow-phase events (0 otherwise). The exporter binds
  // same-id steps into one arrow chain and drops any chain whose 's' step
  // was lost to ring overflow or sampling — flow ids never dangle.
  uint64_t flow_id = 0;

  double sim_ts_ns = -1;   // < 0: event appears on the wall track only.
  double sim_dur_ns = 0;
  uint64_t wall_ts_ns = 0; // 0: filled by Emit() at emission time.
  uint64_t wall_dur_ns = 0;

  // Optional numeric and string arguments (names are literals too).
  const char* arg_name = nullptr;
  uint64_t arg_value = 0;
  const char* arg2_name = nullptr;
  uint64_t arg2_value = 0;
  const char* str_arg_name = nullptr;
  const char* str_arg_value = nullptr;
};

class Tracer {
 public:
  Tracer(int num_nodes, const TraceConfig& config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int num_nodes() const { return static_cast<int>(rings_.size()); }
  const TraceConfig& config() const { return config_; }

  // True when messages should carry a TraceContext and emit flow events.
  bool flows_enabled() const { return config_.trace_enabled && config_.flow_events; }

  // Allocates a tracer-wide unique causal id for a new flow chain. Never 0.
  uint64_t NextFlowId() { return next_flow_id_.fetch_add(1, std::memory_order_relaxed); }

  // Nanoseconds of wall time since tracer construction.
  uint64_t WallNowNs() const;

  // Appends to the ring of event.node (clamped to a valid ring). Applies
  // sampling; fills wall_ts_ns if unset. Overwrites the oldest event when
  // the ring is full.
  void Emit(TraceEvent event);

  // Moves the ring's contents (in emission order) to the global store.
  // Called by each node at barriers so rings only need to hold one epoch.
  void Drain(NodeId node);
  void DrainAll();

  // Events currently buffered in one ring (not yet drained).
  size_t RingSize(NodeId node) const;
  // Events overwritten before they could be drained, and events removed by
  // sampling, across all rings.
  uint64_t TotalDropped() const;
  uint64_t TotalSampledOut() const;
  // Events accepted into rings (post-sampling) since construction.
  uint64_t TotalEmitted() const;

  // Drains all rings and returns a copy of every collected event.
  std::vector<TraceEvent> Collected();

  // Chrome trace-event JSON ("traceEvents" array form plus metadata).
  // Events are sorted by (pid, tid, ts) so every track is monotone.
  std::string ToChromeJson();
  bool WriteChromeJson(const std::string& path);

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<TraceEvent> slots;  // Capacity-sized circular buffer.
    size_t start = 0;
    size_t count = 0;
    uint64_t seq = 0;          // Pre-sampling emission counter.
    uint64_t dropped = 0;      // Overwritten before drain.
    uint64_t sampled_out = 0;  // Removed by sample_period.
    uint64_t accepted = 0;
  };

  TraceConfig config_;
  std::vector<std::unique_ptr<Ring>> rings_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_flow_id_{1};

  mutable std::mutex drained_mu_;
  std::vector<TraceEvent> drained_;
};

}  // namespace cvm::obs

#endif  // CVM_OBS_TRACER_H_
