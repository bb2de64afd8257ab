// Barrier engine, extracted from the node monolith: barrier arrival/release
// bookkeeping over a k-ary tree rooted at node 0 (the flat barrier is the
// one-level tree: the master collects arrivals, merges interval logs,
// releases workers) and the orchestration of the barrier-time race-detection
// pipeline in both modes — the paper's serial check on the master, and the
// distributed compare (CompareRequest / BitmapShip / CompareReply). One
// BarrierCoordinator per node; master-side state is only exercised on node 0.
// Everything runs on the node's own thread: the barrier body blocks only in
// Node::Await/AwaitWatchful, which keep dispatching into the handlers below.
#ifndef CVM_DSM_BARRIER_COORDINATOR_H_
#define CVM_DSM_BARRIER_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>
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
  int64_t detect_ps = 0;               // Master sim time (ps) inside the barrier check.
  uint64_t bitmap_bytes_raw = 0;       // Bitmap-round payloads at legacy raw size.
  uint64_t bitmap_bytes_wire = 0;      // Actual (possibly compressed) bytes.
  uint64_t remote_pairs_compared = 0;  // Bitmap pairs compared off-master.
  uint64_t remote_reports = 0;         // Race reports shipped back by peers.
  uint64_t batch_rounds = 0;           // Detection flushes run (detect_batch > 1 only).
  uint64_t batched_epochs = 0;         // Epochs whose check lists rode a flush.
};

class BarrierCoordinator {
 public:
  explicit BarrierCoordinator(Node& node);

  BarrierCoordinator(const BarrierCoordinator&) = delete;
  BarrierCoordinator& operator=(const BarrierCoordinator&) = delete;

  // Registers barrier and detection-round handlers.
  void RegisterHandlers(MessageDispatcher& dispatcher);

  // Resolves the coordinator's metric handles; called from the node's
  // observability init (no-op when metrics are disabled).
  void InitObservability(obs::MetricsRegistry* metrics);

  // The barrier body, called from Node::Barrier with the in-barrier interval
  // already published; the same steps on every node of the barrier tree
  // (flat: fanout num_nodes - 1; --barrier-tree: barrier_fanout). Wait for
  // the children's arrivals and fold them in. The root (node 0) then runs
  // the detection pipeline; any other node arrives at its parent and waits
  // for its release. Last, release the children and garbage-collect. A
  // node blocked here keeps serving its peers.
  void RunBarrier(EpochId epoch);

  // Meaningful on node 0 only (the barrier master runs the pipeline).
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

 private:
  // A received barrier-protocol message with the byte counts its receive is
  // charged by: the modeled wire size (flow-context header included) and the
  // read-notice share of it.
  template <typename M>
  struct Inbound {
    M msg;
    size_t wire_bytes = 0;
    size_t read_notice_bytes = 0;
    // Moves the payload out of `message`, which its handler consumes; the
    // byte counts are read first.
    static Inbound Of(Message& message) {
      const size_t read_notice_bytes = PayloadReadNoticeBytes(message.payload);
      return Inbound{std::move(std::get<M>(message.payload)), message.wire_bytes,
                     read_notice_bytes};
    }
  };
  // Lamport-observes the arrival of `in`, sent at sim time `sent_ps`, and
  // charges its read-notice bytes to the CVM-modifications bucket.
  template <typename M>
  void Receive(const Inbound<M>& in, int64_t sent_ps);
  // Sends each child its release: the records unseen by the child
  // subtree's min VC (a flat child's own VC) and the merged clock. A
  // combine tree keeps only records whose write notices intersect the
  // subtree's page interest and strips their read notices.
  void SendReleases(EpochId epoch,
                    const std::map<NodeId, Inbound<BarrierTreeArriveMsg>>& arrivals);
  // Steps 2-3 on the flat master: builds the epoch's check list and queues it.
  void RunRaceDetection(EpochId epoch, const std::vector<IntervalRecord>& epoch_intervals);
  // Publishes the master's overhead and snapshots the metrics registry on
  // every metrics_interval-th epoch and at the final barrier.
  void SnapshotMetrics(EpochId epoch);

  // ---- Combine tree (--barrier-tree) ----
  // The pages this node holds a copy of or is home for: its own share of
  // the page interest a combined arrival carries up.
  Bitmap OwnInterest() const;
  // Steps 2-3 on the combine root: rehydrates the subtrees' claimed
  // fragments, merges them with the root's own claimed `pairs` into the
  // flat scan's order and queues the check list.
  void QueueTreeCheckList(EpochId epoch, std::vector<CheckPair> pairs,
                          const std::vector<TreeFragmentPair>& fragments,
                          DetectorStats claim_stats);

  // ---- The detection queue (--detect-batch=N; 1 flushes every barrier) ----
  // One epoch's queued detection work: its check pairs and the distinct
  // (interval, page) bitmaps they need.
  struct PendingEpoch {
    EpochId epoch = -1;
    std::vector<CheckPair> pairs;
    std::vector<std::pair<IntervalId, PageId>> needed;
  };
  // Shared tail of the flat and tree masters' step 3: computes the bitmap
  // entries the pairs need and queues the epoch's work on pending_.
  void QueueDetection(EpochId epoch, std::vector<CheckPair> pairs);
  // Runs the queued epochs' compare rounds if `epoch` closes a batch window
  // ((epoch + 1) % detect_batch == 0) or is the run's final barrier; no-op
  // otherwise. Master/root only.
  void FlushDetection(EpochId epoch);
  // Serial step 5 over pending_: one combined bitmap-retrieval round over
  // every queued epoch's needs, then the per-epoch word compares, oldest
  // epoch first. `msg_epoch` rides the request messages (= the
  // constituents' current barrier epoch).
  void CompareEpochsSerial(EpochId msg_epoch);

  // kDistributed step 5 for one queued epoch: partition the check pairs over
  // their member nodes, orchestrate the ship/compare/reply round, merge
  // remote reports back into serial order. Returns the merged, ordered
  // reports, stamped with work.epoch. `msg_epoch` rides the messages (it
  // must match the constituents' current barrier epoch); the two differ
  // when a batched flush replays an earlier epoch's pairs.
  std::vector<RaceReport> RunDistributedCompare(EpochId msg_epoch, const PendingEpoch& work);
  // Charges `compared` word-bitmap pair compares to the bitmaps bucket.
  void ChargeCompares(uint64_t compared);

  // ---- Bitmap-round entries (BitmapReply / BitmapShip payloads) ----
  // Word bitmaps gathered for a detection round, keyed by (interval, page).
  struct BitmapKeyHash {
    size_t operator()(const std::pair<IntervalId, PageId>& key) const {
      return (static_cast<size_t>(key.first.index) << 24) ^
             (static_cast<size_t>(key.first.node) << 48) ^ static_cast<size_t>(key.second);
    }
  };
  using BitmapMap =
      std::unordered_map<std::pair<IntervalId, PageId>, PageAccessBitmaps, BitmapKeyHash>;
  // Payload bytes of entries as actually encoded, and at the legacy raw
  // encoding; the difference is what the codec saved on the wire.
  struct EntryBytes {
    uint64_t wire = 0;
    uint64_t raw = 0;
    void Add(const BitmapReplyEntry& entry);
  };
  // Appends this node's bitmaps for (interval, page), encoded as the run is
  // configured, to `out`; nothing if the interval never touched the page.
  void EncodeEntry(const IntervalId& interval, PageId page,
                   std::vector<BitmapReplyEntry>* out) const;
  // Decodes `entries` into `out` and returns their byte counts.
  static EntryBytes DecodeEntries(const std::vector<BitmapReplyEntry>& entries, BitmapMap* out);
  // Emits reports (addr/symbol resolution + trace) and hands them to the
  // system. Shared tail of both pipeline modes.
  void PublishReports(std::vector<RaceReport> reports);
  // Constituent side of the distributed compare: runs once this node has the
  // master's CompareRequest AND all expected inbound ships for `epoch`.
  void TryFinishRemoteCompare(EpochId epoch);

  // Barrier arrivals and releases of either shape, stored in their tree form.
  void OnArrive(Message& msg);
  void OnRelease(Message& msg);
  void OnBitmapRequest(const Message& msg);
  void OnBitmapReply(const Message& msg);
  void OnCompareRequest(Message& msg);
  void OnBitmapShip(Message& msg);
  void OnCompareReply(Message& msg);

  Node& node_;

  // Children's arrivals by epoch, and the non-root release slot (parent ->
  // this subtree).
  std::map<EpochId, std::map<NodeId, Inbound<BarrierTreeArriveMsg>>> arrivals_;
  std::optional<Inbound<BarrierTreeReleaseMsg>> release_;

  // Queued detection work, oldest epoch first (master/root only).
  std::vector<PendingEpoch> pending_;

  // Overlap-probe scratch for this node's claimed-pair builds (tree mode);
  // interior nodes build concurrently, so the shared detector's is off
  // limits here.
  OverlapScratch tree_scratch_;

  // Master-side bitmap collection for the current detection round.
  BitmapMap collected_bitmaps_;
  int bitmap_replies_pending_ = 0;
  uint64_t bitmap_round_bytes_ = 0;
  // What the round's messages would have cost at the legacy raw encoding
  // (identical to bitmap_round_bytes_ when compression is off).
  uint64_t bitmap_round_raw_bytes_ = 0;

  // Master-side state for the distributed compare round (kDistributed).
  std::vector<Inbound<CompareReplyMsg>> compare_replies_;
  int compare_replies_pending_ = 0;
  int master_ships_pending_ = 0;          // BitmapShipMsg rounds inbound to master.
  int64_t master_ship_target_ps_ = 0;     // Latest modeled ship-arrival time.
  EntryBytes master_ship_bytes_;

  // Constituent-node state for the distributed compare, keyed by epoch:
  // ships can arrive before the master's CompareRequest (sources race each
  // other), so both handlers funnel into TryFinishRemoteCompare.
  struct RemoteCompareState {
    bool have_request = false;
    CompareRequestMsg request;
    uint32_t ships_received = 0;
    BitmapMap shipped;
    EntryBytes ship_bytes;  // Entry bytes this node shipped out.
  };
  std::map<EpochId, RemoteCompareState> remote_compare_;

  PipelineStats pipeline_stats_;  // Node 0 only.

  uint64_t probe_token_ = 0;  // Distinguishes heartbeat probes in traces.

  // Detection metric handles (null when metrics are disabled).
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
