// DsmSystem: owns the shared segment, the network fabric, the nodes, the
// race detector, and the run results. One DsmSystem performs exactly one
// run: construct, allocate shared data, Run(app), inspect the RunResult.
// A second Run(), or an Alloc() after Run(), is a CHECK failure; the next
// run builds a fresh system (construction costs only what the run touches).
#ifndef CVM_DSM_DSM_H_
#define CVM_DSM_DSM_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/dsm/node.h"
#include "src/dsm/options.h"
#include "src/instr/counters.h"
#include "src/mem/shared_segment.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/race/detector.h"
#include "src/race/postmortem.h"
#include "src/race/race_report.h"
#include "src/race/replay.h"
#include "src/sim/cost_model.h"

namespace cvm {

// Why a run aborted: a node reached its planned fail-stop point, or a send
// exhausted its attempt budget and its target was suspected (that node may
// well be alive; the lost frame alone tears the epoch).
enum class CrashCause : uint8_t { kNone, kFailStop, kSuspicion };

// Outcome of the crash-tolerance machinery for one run (docs/FAULTS.md
// "Crash faults & recovery"). All-zero unless a node died during the run or
// a send exhausted its attempt budget; either aborts the run.
struct CrashOutcome {
  bool crashed = false;                // The run aborted, for either cause.
  CrashCause cause = CrashCause::kNone;
  NodeId crash_node = kNoNode;         // The node declared dead (after an
                                       // exhausted budget, the suspect, which
                                       // may be alive).
  EpochId crash_epoch = -1;            // Epoch the death was observed in.
  EpochId last_consistent_epoch = -1;  // Last fully race-checked barrier epoch;
                                       // reports are truncated to this prefix.
  size_t rollbacks = 0;                // Nodes that restored a checkpoint.
  size_t locks_recovered = 0;          // Lock slots diverged from the cut.
  uint64_t checkpoint_bytes = 0;       // Largest per-node encoded-bitmap cut.
};

// Everything the evaluation harness needs from one run.
struct RunResult {
  // Race detection output (deduplicated; symbolized).
  std::vector<RaceReport> races;

  // Dynamic metrics.
  NetworkStats net;
  fault::FaultStats fault;  // All-zero unless a fault plan was enabled.
  DetectorStats detector;
  // How the detection pipeline ran (modeled shards, bitmap-wire compression,
  // distributed compares) — all-zero under the serial default with raw
  // encoding, except detect_epochs/shards_used.
  PipelineStats pipeline;
  AccessCounters access;
  // Messages that arrived with no registered dispatch handler, summed over
  // all nodes. Nonzero means a protocol wiring bug; the service's tenant
  // isolation guarantee requires this to stay zero under every fault
  // profile.
  uint64_t dispatch_unhandled = 0;
  uint64_t intervals_total = 0;
  uint64_t barriers = 0;                 // Per node (all nodes see the same count).
  uint64_t page_faults = 0;
  uint64_t bitmap_pairs_recorded = 0;    // Denominator of "Bitmaps Used".
  uint64_t shared_bytes_used = 0;
  // Storage high-water marks across nodes: retained interval records and
  // bitmap pairs. Bounded by one barrier epoch in the online system; grows
  // with the run under postmortem tracing.
  size_t max_interval_log_size = 0;
  size_t max_retained_bitmap_pairs = 0;

  // Simulated time: critical path (max node clock) and per-bucket overhead
  // sums across nodes (Figure 3 attribution).
  double sim_time_ns = 0;
  std::array<double, kNumBuckets> overhead_ns = {};
  double wall_seconds = 0;

  // §6.1 artifacts.
  SyncSchedule recorded_schedule;
  std::vector<WatchHit> watch_hits;

  // Crash-tolerance outcome; recovery.crashed == false on healthy runs.
  CrashOutcome recovery;

  double IntervalsPerBarrier(int num_nodes) const {
    if (barriers == 0 || num_nodes == 0) {
      return 0;
    }
    return static_cast<double>(intervals_total) /
           (static_cast<double>(barriers) * static_cast<double>(num_nodes));
  }
};

class DsmSystem {
 public:
  explicit DsmSystem(DsmOptions options);
  ~DsmSystem();

  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  const DsmOptions& options() const { return options_; }
  SharedSegment& segment() { return *segment_; }
  // The one all-zero frame every node installs, shared, for a page nobody
  // has written. Allocated by Run, with the nodes.
  const Frame& zero_frame() const { return zero_frame_; }
  Network& network() { return *network_; }

  // Observability (null when the corresponding TraceConfig switch is off).
  obs::Tracer* tracer() { return tracer_.get(); }
  obs::MetricsRegistry* metrics() { return metrics_.get(); }

  // Null unless options().fault_plan is enabled.
  const fault::FaultInjector* fault_injector() const { return injector_.get(); }

  // True when the active fault plan schedules a node crash. Nodes capture
  // per-barrier checkpoints and use watchful (timeout + heartbeat) barrier
  // waits only in this mode, so healthy runs pay nothing for crash
  // tolerance and stay wire-identical to pre-crash-support builds.
  bool crash_armed() const {
    return injector_ != nullptr && injector_->plan().crash_enabled();
  }

  // Pre-run shared allocation (single-threaded, before Run).
  GlobalAddr Alloc(const std::string& name, uint64_t bytes, bool page_align = true);

  // Runs `app` on every node (the classic SPMD model all four benchmark
  // applications use), appends an implicit final barrier so the last epoch
  // is race-checked, and returns the collected results. Call once.
  RunResult Run(const std::function<void(NodeContext&)>& app);

  // ---- Internal, used by Node ----
  Node& node(NodeId id);
  RaceDetector& detector() { return *detector_; }  // Master-only, barrier-serialized.
  PostMortemTrace& trace() { return trace_; }      // §7 post-mortem baseline.
  void AddReports(std::vector<RaceReport> reports);
  void AddWatchHit(WatchHit hit);
  SyncSchedule& recorded_schedule() { return recorded_schedule_; }
  // Adds `delta_ps` to the run-wide published overhead of `bucket` and
  // returns the whole ns that moves the total's floor by. A node adds that
  // to the bucket's `overhead.*_ns` counter, so the counter always holds the
  // published total floored to ns and the per-epoch rows sum to it exactly.
  uint64_t PublishOverheadPs(Bucket bucket, int64_t delta_ps);

  // Crash recovery (called by nodes; see docs/FAULTS.md). ReportCount /
  // TruncateReports let the master checkpoint and retract the published
  // report prefix; NoteCrash folds one node's rollback into the run's
  // CrashOutcome.
  size_t ReportCount();
  void TruncateReports(size_t count);
  void NoteCrash(const RunAbortError& err, NodeId node, EpochId checkpoint_epoch,
                 size_t locks_recovered, uint64_t checkpoint_bytes);

 private:
  const DsmOptions options_;
  std::unique_ptr<SharedSegment> segment_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RaceDetector> detector_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  Frame zero_frame_;
  std::vector<std::unique_ptr<Node>> nodes_;

  PostMortemTrace trace_;

  std::mutex results_mu_;
  std::vector<RaceReport> reports_;
  std::vector<WatchHit> watch_hits_;
  SyncSchedule recorded_schedule_;
  CrashOutcome crash_outcome_;
  std::array<std::atomic<int64_t>, kNumBuckets> overhead_published_ps_ = {};
  bool ran_ = false;
};

// Convenience: run `app` under the given options with a fresh system and an
// allocation callback. Returns the result.
RunResult RunDsmApp(const DsmOptions& options,
                    const std::function<void(DsmSystem&)>& setup,
                    const std::function<void(NodeContext&)>& app);

}  // namespace cvm

#endif  // CVM_DSM_DSM_H_
