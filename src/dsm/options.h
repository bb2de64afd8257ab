// Configuration for one DSM run.
#ifndef CVM_DSM_OPTIONS_H_
#define CVM_DSM_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "src/common/types.h"
#include "src/fault/fault.h"
#include "src/obs/trace_config.h"
#include "src/protocol/protocol_kind.h"
#include "src/race/detector.h"
#include "src/sim/cost_model.h"

namespace cvm {

// ProtocolKind and WriteDetection live with the protocol strategy layer in
// src/protocol/protocol_kind.h; this header re-exports them via the include
// above so run configuration stays a one-stop shop.

// How the barrier-time race check is executed (§6.2–§6.3 discuss both the
// overlap-method cost and distributing the check across nodes).
enum class DetectionPipeline : uint8_t {
  // The paper's prototype: the whole check runs serially on the barrier
  // master, with one blocking full-bitmap retrieval round.
  kSerial,
  // Distributes step 5: each check pair is assigned to one of its member
  // nodes, which compares the bitmaps it already owns locally and ships back
  // only race reports. On the flat barrier the master's check-list build is
  // charged as `detect_shards` parallel shards.
  kDistributed,
};

// A watched location for the two-run reference-identification scheme (§6.1):
// during a replay run, accesses to [addr, addr+bytes) in `epoch` record the
// application-provided source site.
struct Watchpoint {
  GlobalAddr addr = 0;
  uint64_t bytes = kWordSize;
  EpochId epoch = -1;  // -1 = any epoch.
};

struct DsmOptions {
  int num_nodes = 8;
  uint64_t page_size = 4096;
  uint64_t max_shared_bytes = 16ull << 20;
  int num_locks = 64;

  ProtocolKind protocol = ProtocolKind::kSingleWriterLrc;
  bool race_detection = true;   // Master switch: access instrumentation.
  // §7 baseline: besides the online barrier-time checks, log every interval
  // record and bitmap to a trace that is analyzed post-mortem (Adve et al.'s
  // scheme). Storage grows with the run.
  bool postmortem_trace = false;
  WriteDetection write_detection = WriteDetection::kInstrumentation;
  // Barrier-time check execution: serial master (the paper's prototype) or
  // distributed across constituent nodes.
  DetectionPipeline detection_pipeline = DetectionPipeline::kSerial;
  // Modeled shard count of the flat distributed master's check-list build
  // (>= 1). The rows run on the calling thread; only the simulated charge
  // treats them as parallel. The tree barrier ignores it.
  int detect_shards = 4;
  // Hierarchical barrier: arrivals combine up a k-ary tree (heap numbering,
  // node 0 at the root) instead of every worker sending straight to the
  // master, and releases flow back down the same tree. Interior nodes merge
  // child interval logs and VC maxima and pre-reduce check-list fragments,
  // so the master's per-epoch work and wire bytes stop growing with the
  // square of the cluster size. Off by default: the flat barrier is the
  // paper's 8-node configuration and stays byte-identical to prior builds.
  bool barrier_tree = false;
  // Combine-tree fan-out (children per interior node); used only when
  // barrier_tree is set. Must be in [1, num_nodes].
  int barrier_fanout = 4;
  // Batch the barrier-time race check across N epochs: the check list is
  // still built eagerly every epoch (records are fresh and cheap to scan),
  // but the bitmap-retrieval round and word-level compares run once per N
  // epochs over the accumulated lists, amortizing round setup. 1 = the
  // paper's check-every-barrier behavior. Reports are identical to batch=1
  // and still emitted in epoch order.
  int detect_batch = 1;
  // Encode bitmap-round payloads with the sparse/run-length codec instead of
  // shipping raw page bitmaps. Off by default so the serial baseline keeps
  // the paper's byte accounting.
  bool compress_bitmaps = false;
  // §6.4: report only races from the earliest racy epoch.
  bool first_races_only = false;

  CostParams costs;

  // Observability: event tracing + per-epoch metrics (src/obs/). Off by
  // default; each hook costs one null-pointer check when off.
  obs::TraceConfig trace;

  // Fault injection (src/fault/): a non-off profile routes every send through
  // the reliable transport, which retransmits around the injected faults.
  // Zero rto_base_ns/rto_cap_ns/delay_hop_ns fields are derived from `costs`.
  fault::FaultPlan fault_plan;

  // Synchronization-order record/replay (§6.1).
  bool record_sync_order = false;
  const class SyncSchedule* replay_schedule = nullptr;  // Non-null = replay run.
  std::optional<Watchpoint> watch;
};

}  // namespace cvm

#endif  // CVM_DSM_OPTIONS_H_
