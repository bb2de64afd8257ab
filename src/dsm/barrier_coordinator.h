// Barrier engine, extracted from the node monolith: barrier arrival/release
// bookkeeping (master = node 0 collects arrivals, merges interval logs,
// releases workers) and the orchestration of the barrier-time race-detection
// pipeline in both modes — the paper's serial check on the master, and the
// distributed compare (CompareRequest / BitmapShip / CompareReply). One
// BarrierCoordinator per node; master-side state is only exercised on node 0.
#ifndef CVM_DSM_BARRIER_COORDINATOR_H_
#define CVM_DSM_BARRIER_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/protocol/interval.h"
#include "src/race/detector.h"
#include "src/vc/vector_clock.h"

namespace cvm {

class Node;

// Detection-pipeline accounting for one run, collected on the barrier master
// (node 0): how the check was modeled/distributed and what the compressed
// bitmap wire format saved. The ablation bench reports these side by side
// for serial vs distributed.
struct PipelineStats {
  uint64_t shards_used = 0;            // Modeled shards of the check-list build.
  uint64_t detect_epochs = 0;          // Epochs with a non-empty check list.
  double detect_ns = 0;                // Master sim time inside the barrier check.
  uint64_t bitmap_bytes_raw = 0;       // Bitmap-round payloads at legacy raw size.
  uint64_t bitmap_bytes_wire = 0;      // Actual (possibly compressed) bytes.
  uint64_t remote_pairs_compared = 0;  // Bitmap pairs compared off-master.
  uint64_t remote_reports = 0;         // Race reports shipped back by peers.
  uint64_t batch_rounds = 0;           // Detection flushes run (detect_batch > 1).
  uint64_t batched_epochs = 0;         // Epochs whose check lists rode a flush.
};

class BarrierCoordinator {
 public:
  explicit BarrierCoordinator(Node& node);

  BarrierCoordinator(const BarrierCoordinator&) = delete;
  BarrierCoordinator& operator=(const BarrierCoordinator&) = delete;

  // Registers barrier and detection-round handlers (service thread).
  void RegisterHandlers(MessageDispatcher& dispatcher);

  // Resolves the coordinator's metric handles; called from the node's
  // observability init (no-op when metrics are disabled or compiled out).
  void InitObservability(obs::MetricsRegistry* metrics);

  // The barrier body, called by the app thread with the node mutex held and
  // the in-barrier interval already published. Master path: wait for every
  // arrival, merge logs, run the detection pipeline, release workers.
  // Worker path: send the arrival, wait for the release, apply its records.
  void RunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);

  // Meaningful on node 0 only (the barrier master runs the pipeline).
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

  // Master-side health check (node mutex held): heartbeat-probes every node
  // that has not arrived for `epoch`. A live node acks and is left alone; a
  // dead one surfaces kPeerUnreachable at this sender, which initiates the
  // run abort. Called from the master's own watchful barrier wait and from
  // the PeerSuspect handler when a stuck worker asks for a health check.
  void ProbeMissingArrivalsLocked(EpochId epoch);

 private:
  void MasterRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);
  void RunRaceDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                        const std::vector<IntervalRecord>& epoch_intervals);

  // ---- Hierarchical (k-ary combine tree) barrier (--barrier-tree) ----
  // The node's barrier body in tree mode: wait for the child subtrees, merge
  // their logs / clocks / check-list fragments, build the pairs whose LCA is
  // this node, then either forward the combined arrival up (interior/leaf)
  // or run detection and start the release wave (root).
  void TreeRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);
  // Sends each child subtree its tailored release: records unseen by the
  // subtree's min VC whose write notices intersect the subtree's page
  // interest, read notices stripped (node mutex held, log not yet GC'd).
  void SendTreeReleasesLocked(EpochId epoch, const std::vector<NodeId>& children);

  // ---- Epoch-batched detection (--detect-batch=N) ----
  // This epoch's records only — the detection input when prior epochs' logs
  // are intentionally retained (batching) or merged (tree).
  std::vector<IntervalRecord> CurrentEpochRecords(EpochId epoch) const;
  // Shared detection tail for the flat and tree masters: computes the bitmap
  // entries the pairs need, then runs the compare round now (batch <= 1) or
  // parks the epoch's work on pending_batch_.
  void DispatchDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                         const std::vector<CheckPair>& pairs);
  // Runs queued epochs' compare rounds if `epoch` closes a batch window (or
  // is the run's final barrier); no-op otherwise. Master/root only.
  void MaybeFlushDetectBatch(std::unique_lock<std::mutex>& lk, EpochId epoch);
  // Borrowed view of one epoch's detection work; the immediate path points
  // at the detector's pooled check list, the flush path at pending_batch_.
  struct EpochCheckView {
    EpochId epoch = -1;
    const std::vector<CheckPair>* pairs = nullptr;
    const std::vector<std::pair<IntervalId, PageId>>* needed = nullptr;
  };
  // Serial step-5 tail shared by the immediate and batched paths: one
  // combined bitmap-retrieval round over every listed epoch's needs, then
  // the per-epoch word compares, oldest epoch first. `msg_epoch` rides the
  // request messages (= the constituents' current barrier epoch).
  void CompareEpochsSerial(std::unique_lock<std::mutex>& lk, EpochId msg_epoch,
                           const std::vector<EpochCheckView>& work);

  // kDistributed step 5: partition the check pairs over their member nodes,
  // orchestrate the ship/compare/reply round, merge remote reports back into
  // serial order. Returns the merged, ordered reports. `msg_epoch` rides the
  // messages (it must match the constituents' current barrier epoch);
  // `report_epoch` stamps the reports — the two differ when a batched flush
  // replays an earlier epoch's pairs.
  std::vector<RaceReport> RunDistributedCompare(std::unique_lock<std::mutex>& lk,
                                                EpochId msg_epoch, EpochId report_epoch,
                                                const std::vector<CheckPair>& pairs,
                                                size_t checklist_entries);
  // Emits reports (addr/symbol resolution + trace) and hands them to the
  // system. Shared tail of both pipeline modes.
  void PublishReports(std::vector<RaceReport> reports);
  // Constituent side of the distributed compare: runs once this node has the
  // master's CompareRequest AND all expected inbound ships for `epoch`.
  void TryFinishRemoteCompare(EpochId epoch);

  void OnBarrierArrive(const Message& msg);
  void OnBarrierRelease(const Message& msg);
  void OnTreeArrive(const Message& msg);
  void OnTreeRelease(const Message& msg);
  void OnBitmapRequest(const Message& msg);
  void OnBitmapReply(const Message& msg);
  void OnCompareRequest(const Message& msg);
  void OnBitmapShip(const Message& msg);
  void OnCompareReply(const Message& msg);

  Node& node_;

  // Worker-side release slot.
  std::optional<BarrierReleaseMsg> barrier_release_;

  // ---- Combine-tree state ----
  struct TreeArrival {
    BarrierTreeArriveMsg msg;
    size_t wire_bytes = 0;
    size_t read_notice_bytes = 0;
  };
  std::map<EpochId, std::map<NodeId, TreeArrival>> tree_arrivals_;
  // Non-root release slot (parent -> this subtree).
  struct TreeRelease {
    BarrierTreeReleaseMsg msg;
    size_t wire_bytes = 0;
    size_t read_notice_bytes = 0;
  };
  std::optional<TreeRelease> tree_release_;
  // Per-child release-tailoring state for the barrier in flight: the child
  // subtree's min VC and page-interest set, captured from its arrival.
  struct TreeChildState {
    VectorClock min_vc;
    Bitmap interest;
  };
  std::map<NodeId, TreeChildState> tree_child_state_;

  // ---- Batched-detection state (master/root only) ----
  struct PendingEpoch {
    EpochId epoch = -1;
    std::vector<CheckPair> pairs;
    std::vector<std::pair<IntervalId, PageId>> needed;
  };
  std::vector<PendingEpoch> pending_batch_;

  // Dense-probe scratch for this node's claimed-pair builds (tree mode);
  // interior nodes build concurrently, so the shared detector's arenas are
  // off limits here.
  OverlapScratch tree_scratch_;

  // Barrier master state.
  struct ArrivalInfo {
    std::vector<IntervalRecord> records;
    VectorClock vc;
    double time_ns = 0;
    size_t wire_bytes = 0;
    size_t read_notice_bytes = 0;
  };
  std::map<EpochId, std::map<NodeId, ArrivalInfo>> arrivals_;

  // Master-side bitmap collection for the current detection round.
  std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> collected_bitmaps_;
  int bitmap_replies_pending_ = 0;
  uint64_t bitmap_round_bytes_ = 0;
  // What the round's messages would have cost at the legacy raw encoding
  // (identical to bitmap_round_bytes_ when compression is off).
  uint64_t bitmap_round_raw_bytes_ = 0;

  // Master-side state for the distributed compare round (kDistributed).
  struct CompareReplyInfo {
    CompareReplyMsg msg;
    size_t wire_bytes = 0;
  };
  std::vector<CompareReplyInfo> compare_replies_;
  int compare_replies_pending_ = 0;
  int master_ships_pending_ = 0;          // BitmapShipMsg rounds inbound to master.
  double master_ship_target_ns_ = 0;      // Latest modeled ship-arrival time.
  uint64_t master_ship_bytes_wire_ = 0;
  uint64_t master_ship_bytes_raw_ = 0;

  // Constituent-node state for the distributed compare, keyed by epoch:
  // ships can arrive before the master's CompareRequest (sources race each
  // other), so both handlers funnel into TryFinishRemoteCompare.
  struct RemoteCompareState {
    bool have_request = false;
    CompareRequestMsg request;
    uint32_t ships_received = 0;
    std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> shipped;
    uint64_t ship_bytes_wire = 0;  // Entry bytes this node shipped out.
    uint64_t ship_bytes_raw = 0;
  };
  std::map<EpochId, RemoteCompareState> remote_compare_;

  PipelineStats pipeline_stats_;  // Node 0 only.

  uint64_t probe_token_ = 0;  // Distinguishes heartbeat probes in traces.

  // Detection metric handles (null when metrics are disabled; the whole
  // block is dead code under -DCVM_OBS=OFF).
  struct MetricHandles {
    obs::Counter* check_pairs = nullptr;
    obs::Counter* checklist_entries = nullptr;
    obs::Counter* bitmap_pairs_compared = nullptr;
    obs::Counter* races_reported = nullptr;
    obs::Counter* shard_count = nullptr;
    obs::Counter* bitmap_bytes_raw = nullptr;
    obs::Counter* bitmap_bytes_wire = nullptr;
    obs::Counter* bitmap_bytes_saved = nullptr;
    obs::Counter* remote_pairs = nullptr;
    obs::Counter* remote_reports = nullptr;
    obs::Counter* tree_up_bytes = nullptr;
    obs::Counter* tree_down_bytes = nullptr;
    obs::Counter* tree_fragments = nullptr;
    obs::Counter* tree_height = nullptr;
    obs::Counter* batch_rounds = nullptr;
    obs::Counter* batch_epochs = nullptr;
  };
  MetricHandles mh_;
  bool have_metrics_ = false;
};

}  // namespace cvm

#endif  // CVM_DSM_BARRIER_COORDINATOR_H_
