// One DSM node: a simulated processor with a private view of the shared
// segment. Each node runs two OS threads — the application thread executing
// user code against the public API below, and a service thread draining the
// node's network inbox, standing in for CVM's interrupt-driven message
// handlers.
//
// The node itself is a thin core: shared-access instrumentation, interval
// bookkeeping, and the simulated clock. Everything protocol-, lock-, or
// barrier-specific lives in its own engine, wired together here:
//
//   CoherenceProtocol (src/protocol/)  — fault handling, diff/ownership
//     traffic, write-notice application. The node reaches it through the
//     strategy interface only; the protocol reaches back through
//     ProtocolHost, the narrow slice of node state it may touch.
//   MessageDispatcher (src/net/)       — typed per-payload handler registry
//     the service loop drains into; unhandled kinds are counted, not
//     silently dropped.
//   LockManager (src/dsm/)             — token locks, manager forwarding,
//     grant-time interval shipping, record/replay ordering.
//   BarrierCoordinator (src/dsm/)      — barrier arrival/release plus the
//     serial/distributed race-detection pipeline.
//
// All node state is guarded by mu_; blocking operations park the app thread
// on cv_ while the service thread fills the corresponding reply slot.
// Service handlers never block on the network, which makes the node graph
// deadlock-free by construction.
#ifndef CVM_DSM_NODE_H_
#define CVM_DSM_NODE_H_

#include <array>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/common/abort.h"
#include "src/common/types.h"
#include "src/dsm/barrier_coordinator.h"
#include "src/dsm/lock_manager.h"
#include "src/dsm/options.h"
#include "src/instr/access_filter.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/protocol/coherence.h"
#include "src/protocol/interval.h"
#include "src/sim/cost_model.h"
#include "src/vc/vector_clock.h"

namespace cvm {

class DsmSystem;

class Node : public ProtocolHost {
 public:
  Node(NodeId id, DsmSystem* system);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---------------- Application API ----------------

  NodeId id() const { return id_; }
  int num_nodes() const override;

  // Instrumented shared accesses at word granularity. Addresses are offsets
  // into the global shared segment.
  uint32_t ReadWord(GlobalAddr addr);
  void WriteWord(GlobalAddr addr, uint32_t value);

  template <typename T>
  T Read(GlobalAddr addr) {
    static_assert(sizeof(T) == kWordSize);
    return std::bit_cast<T>(ReadWord(addr));
  }
  template <typename T>
  void Write(GlobalAddr addr, T value) {
    static_assert(sizeof(T) == kWordSize);
    WriteWord(addr, std::bit_cast<uint32_t>(value));
  }

  // System-visible synchronization (the only kind the detector understands —
  // roll-your-own synchronization over shared memory yields spurious races,
  // exactly as §2 warns).
  void Lock(LockId lock);
  void Unlock(LockId lock);
  void Barrier();

  // §6.3: global consolidation of consistency data for barrier-free phases.
  // Runs the race check and garbage-collects interval logs; semantically a
  // collective operation like a barrier.
  void Consolidate() { Barrier(); }

  // Models `units` of uninstrumented computation (advances simulated time).
  void Compute(uint64_t units);

  // Called by the DsmSystem app-thread wrapper just before the implicit
  // final barrier: with epoch-batched detection (--detect-batch > 1) the
  // master must flush any still-queued check lists at that barrier even if
  // it falls mid-batch, and every node releases its deferred bitmaps.
  void MarkFinalBarrier();

  // An instrumented access that ATOM could not prove private but that turns
  // out, at run time, to miss the shared segment (§5.1: the majority of
  // runtime calls to the analysis routine are for private data).
  void PrivateAccess(uint64_t va, bool is_write);

  // Simulated-VA allocator for private (LocalArray) data.
  uint64_t AllocPrivateVa(uint64_t bytes);

  // Tags subsequent accesses with a source site, consumed by the §6.1
  // watchpoint machinery during replay runs.
  void SetSite(const char* site) { site_ = site; }

  // ---------------- Lifecycle (DsmSystem only) ----------------

  void StartService();
  void JoinService();

  // ---------------- Post-run metric snapshots ----------------

  // Post-mortem support: dumps every retained bitmap pair into the trace.
  void DumpTraceBitmaps(class PostMortemTrace& trace) const;

  const AccessCounters& access_counters() const { return filter_.counters(); }
  const NodeTiming& timing() const { return timing_; }
  uint64_t intervals_created() const { return intervals_created_; }
  uint64_t barriers() const { return barriers_; }
  uint64_t page_faults() const { return page_faults_; }
  uint64_t bitmap_pairs_recorded() const { return bitmaps_.TotalPairsRecorded(); }
  // High-water marks of retained consistency data — the paper's storage
  // story (§6.3 consolidation, §6.4: discard only after checking).
  size_t max_interval_log_size() const { return max_log_size_; }
  size_t max_retained_bitmap_pairs() const { return max_retained_pairs_; }
  // Meaningful on node 0 only (the barrier master runs the pipeline).
  const PipelineStats& pipeline_stats() const { return barrier_.pipeline_stats(); }

  // Layer access for tests and tooling.
  const CoherenceProtocol& protocol() const { return *protocol_; }
  const MessageDispatcher& dispatcher() const { return dispatcher_; }
  const BarrierCoordinator& barrier_coordinator() const { return barrier_; }
  const LockManager& lock_manager() const { return lock_mgr_; }
  const PageTable& page_table() const { return pages_; }

  // ---------------- Crash-tolerant epochs ----------------
  // (docs/FAULTS.md "Crash faults & recovery".)

  // One (interval, page) access-bitmap pair, bitmap_codec-encoded: the
  // checkpoint keeps the compact wire form, not live word arrays.
  struct CheckpointBitmapPair {
    IntervalIndex interval = 0;
    PageId page = -1;
    EncodedBitmap read;
    EncodedBitmap write;
  };

  // The consistent cut retained at each successful barrier: everything the
  // detection protocol needs to resume from epoch `epoch` — interval VCs,
  // the interval log, unchecked access bitmaps, and lock ownership. Data
  // pages are deliberately NOT part of the cut: a failed workload is re-run
  // from scratch by the service, never resumed mid-computation.
  struct EpochCheckpoint {
    EpochId epoch = 0;
    VectorClock vc;
    IntervalIndex cur_interval = 0;
    std::vector<IntervalRecord> log;
    std::vector<CheckpointBitmapPair> bitmaps;
    LockManager::Snapshot locks;
    size_t reports_published = 0;  // Master only: prefix of system reports.
    uint64_t encoded_bitmap_bytes = 0;
  };

  // Called by the DsmSystem app-thread wrapper after a RunAbortError unwound
  // the app: discards the torn epoch and restores the last consistent cut.
  void RecoverAfterAbort(const RunAbortError& err);

  bool crashed() const {
    std::lock_guard<std::mutex> guard(mu_);
    return crashed_;
  }

 private:
  friend class DsmSystem;
  friend class LockManager;
  friend class BarrierCoordinator;

  // ---- ProtocolHost (the protocol layer's view of this node) ----
  NodeId self() const override { return id_; }
  uint64_t page_size() const override { return opts_.page_size; }
  const CostParams& costs() const override { return opts_.costs; }
  WriteDetection write_detection() const override { return opts_.write_detection; }
  std::mutex& mu() override { return mu_; }
  std::condition_variable& cv() override { return cv_; }
  PageTable& pages() override { return pages_; }
  BitmapStore& bitmaps() override { return bitmaps_; }
  IntervalLog& log() override { return log_; }
  NodeTiming& timing() override { return timing_; }
  IntervalIndex current_interval() const override { return cur_interval_; }
  EpochId current_epoch() const override { return epoch_; }
  const perf::FlatIdSet<PageId>& current_writes() const override { return cur_writes_; }
  void NoteWrite(PageId page) override { cur_writes_.Insert(page); }
  bool run_aborted() const override { return aborted_; }
  void ThrowIfAborted() override { ThrowIfAbortedLocked(); }
  void Send(NodeId to, Payload payload) override;
  void ChargeMessage(size_t bytes, size_t read_notice_bytes) override {
    ChargeMessageLocked(bytes, read_notice_bytes);
  }
  std::vector<uint8_t> InitialPageData(PageId page) override;
  obs::Tracer* tracer() override { return tracer_; }
  DiffObs* diff_obs() override { return obs::kObsCompiledIn ? &diff_obs_ : nullptr; }
  void CountPageFetch() override;
  void TraceInstant(const char* name, const char* cat, const char* arg_name = nullptr,
                    uint64_t arg_value = 0) override;

  // ---- Service thread ----
  void ServiceLoop();

  // ---- Causal flow tracing ----
  // Called by Send (mu_ held): stamps a TraceContext on the outbound message
  // — inheriting the chain of the message being dispatched when this send
  // forwards the same payload kind, starting a fresh chain (with the inbound
  // chain as parent) otherwise — and emits the chain's 's' step.
  void StampFlowContext(Message& msg);
  // Service-loop dispatch wrapper: runs the handler, then emits the receive
  // step — 't' if the handler forwarded the chain onward, 'f' if it ended
  // here. Emission is post-dispatch because the forward/terminal distinction
  // is unknowable before the handler runs.
  void DispatchWithFlow(const Message& msg);

  // ---- Shared-access internals (mu_ held) ----
  void ReadFaultLocked(std::unique_lock<std::mutex>& lk, PageId page);
  void WriteFaultLocked(std::unique_lock<std::mutex>& lk, PageId page);

  // ---- Interval machinery (mu_ held) ----
  void EndIntervalLocked(std::unique_lock<std::mutex>& lk);
  void BeginIntervalLocked();
  void ApplyIntervalRecordsLocked(const std::vector<IntervalRecord>& records);
  void GarbageCollectLocked();

  // ---- Cost helpers (mu_ held) ----
  void ChargeMessageLocked(size_t bytes, size_t read_notice_bytes);
  void ChargeInstrumentationLocked();

  // ---- Observability (mu_ held; no-ops when obs is off) ----
  void InitObservability();
  // Adds the per-bucket overhead accumulated since the last publish to the
  // shared metric counters (called at barriers, before the epoch snapshot).
  void PublishOverheadLocked();

  // ---- Crash / abort machinery (mu_ held) ----
  // Fail-stop trigger: if the armed crash plan names this node and the
  // current epoch, marks the node dead in the fabric and throws.
  void MaybeCrashAtBarrierLocked();
  // Throws RunAbortError if a peer crash has torn the current run.
  void ThrowIfAbortedLocked();
  // Send surfaced kPeerUnreachable: suspicion bookkeeping, then either
  // reports the suspect to the master or (on the master, or when the master
  // itself is the suspect) initiates the run abort.
  void OnPeerUnreachableLocked(NodeId peer);
  // First detector: flips aborted_ and broadcasts RunAbortMsg to survivors.
  void InitiateAbortLocked(NodeId dead, EpochId epoch);
  // Captures the per-barrier consistent cut (crash-armed runs only).
  void CaptureCheckpointLocked();
  // Restores the last consistent cut; returns #locks whose state diverged.
  size_t RollbackToCheckpointLocked();
  // Service-thread handlers.
  void OnHeartbeatProbe(const Message& msg);
  void OnHeartbeatAck(const Message& msg);
  void OnPeerSuspect(const Message& msg);
  void OnRunAbort(const Message& msg);

  // ---------------- State ----------------

  DsmSystem* const system_;
  const NodeId id_;
  const DsmOptions& opts_;
  // opts_.page_size is a power of two (DsmSystem checks): addr >> page_shift_
  // is the page, addr & page_mask_ the offset in it.
  const uint32_t page_shift_;
  const uint64_t page_mask_;

  std::thread service_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Memory.
  PageTable pages_;

  // Consistency metadata.
  VectorClock vc_;
  IntervalIndex cur_interval_ = 0;
  EpochId epoch_ = 0;
  IntervalLog log_;
  BitmapStore bitmaps_;
  // Flat sorted sets (src/perf/arena.h): Clear() at interval boundaries
  // keeps their storage, so steady-state access tracking allocates nothing.
  perf::FlatIdSet<PageId> cur_reads_;
  perf::FlatIdSet<PageId> cur_writes_;

  // Observability (pointers are null when tracing/metrics are disabled; the
  // whole block is dead code under -DCVM_OBS=OFF).
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct MetricHandles {
    obs::Counter* page_faults = nullptr;
    obs::Counter* page_fetches = nullptr;
    obs::Counter* locks_acquired = nullptr;
    obs::Counter* barriers = nullptr;
    obs::Counter* intervals = nullptr;
    std::array<obs::Counter*, kNumBuckets> overhead = {};
  };
  MetricHandles mh_;
  DiffObs diff_obs_;
  std::array<double, kNumBuckets> overhead_published_ = {};

  // Crash / abort state. crashed_: this node hit its fail-stop point and its
  // NIC is dead; the service thread drops anything still in flight to it.
  // aborted_: some node crashed and the current epoch is torn; every blocking
  // wait includes `|| aborted_` in its predicate and re-raises via
  // ThrowIfAbortedLocked after waking.
  bool crashed_ = false;
  bool aborted_ = false;
  NodeId abort_dead_ = kNoNode;
  EpochId abort_epoch_ = -1;
  uint64_t heartbeat_token_ = 0;
  uint64_t heartbeat_acks_ = 0;
  // The next barrier is the run's implicit final one (see MarkFinalBarrier).
  bool final_barrier_ = false;
  std::optional<EpochCheckpoint> checkpoint_;
  obs::Counter* peer_suspected_counter_ = nullptr;
  obs::Counter* locks_recovered_counter_ = nullptr;

  // Instrumentation and timing.
  AccessFilter filter_;
  NodeTiming timing_;
  const char* site_ = "?";
  uint64_t private_va_next_ = kPrivateHeapBase;
  uint64_t intervals_created_ = 0;
  uint64_t barriers_ = 0;
  uint64_t page_faults_ = 0;
  size_t max_log_size_ = 0;
  size_t max_retained_pairs_ = 0;

  // The engines. Declared after every piece of state they read during
  // construction; the protocol is polymorphic (factory by ProtocolKind),
  // the other two are concrete members.
  MessageDispatcher dispatcher_;
  std::unique_ptr<CoherenceProtocol> protocol_;
  LockManager lock_mgr_;
  BarrierCoordinator barrier_;
};

// The application-facing name for a node handle.
using NodeContext = Node;

}  // namespace cvm

#endif  // CVM_DSM_NODE_H_
