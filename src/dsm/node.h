// One DSM node: a simulated processor with a private view of the shared
// segment. Like CVM's one processor per node, each node is one OS thread. It
// runs the application against the public API below, and it also serves the
// node's network inbox — at every API entry (Poll) and inside every blocking
// wait (Await), the way CVM's SIGIO handlers interrupt the application.
// After the application body returns, the thread keeps serving until every
// node is done (DsmSystem::Run).
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
//     every inbound frame is dispatched through; unhandled kinds are
//     counted, not silently dropped.
//   LockManager (src/dsm/)             — token locks, manager forwarding,
//     grant-time interval shipping, record/replay ordering.
//   BarrierCoordinator (src/dsm/)      — barrier arrival/release plus the
//     serial/distributed race-detection pipeline.
//
// Only the node's own thread touches node state, so none of it is locked.
// Await/AwaitWatchful are the only blocking points. They wait in
// Network::Recv, which polls the inbox (yielding the core) and never parks
// the thread, so a reply costs no sleep and wake. Message handlers never
// block, which makes the node graph deadlock-free by construction: a node
// waiting on a reply keeps answering everyone else's requests.
#ifndef CVM_DSM_NODE_H_
#define CVM_DSM_NODE_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/abort.h"
#include "src/common/check.h"
#include "src/common/flat_id_set.h"
#include "src/common/types.h"
#include "src/dsm/barrier_coordinator.h"
#include "src/dsm/lock_manager.h"
#include "src/dsm/options.h"
#include "src/instr/access_filter.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/net/network.h"
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
  // into the global shared segment. An access to a page held in the page
  // cache (below) runs inline and does what the slow path does for a repeat
  // access: poll, one counted charge (NodeTiming::CountAccess), one analysis
  // routine count, one bitmap bit and the word copy. Anything else takes the
  // slow path. The hit path drops two checks the slow path makes, both true
  // by construction: the page is a segment page (it was cached by a slow
  // access that checked it), and `word` is below the bitmap's bit count (it
  // is a page offset over kWordSize, and the bitmaps hold one bit per word
  // of a page).
  uint32_t ReadWord(GlobalAddr addr) {
    Poll();
    const PageId page = static_cast<PageId>(addr >> page_shift_);
    const CachedPage& cached = page_cache_[CacheSlot(page)];
    if (cached.page != page || cached.read_generation != cache_generation_) {
      return ReadWordSlow(addr);
    }
    const uint32_t word = WordInPage(addr & page_mask_);
    uint64_t* const bits = cached.read_bits;
    timing_.CountAccess(/*instrumented=*/bits != nullptr);
    if (bits != nullptr) {
      filter_.CountShared(/*is_write=*/false);
      bits[word >> 6] |= uint64_t{1} << (word & 63);
    }
    uint32_t value;
    std::memcpy(&value, cached.data + word * kWordSize, kWordSize);
    return value;
  }
  void WriteWord(GlobalAddr addr, uint32_t value) {
    Poll();
    const PageId page = static_cast<PageId>(addr >> page_shift_);
    const CachedPage& cached = page_cache_[CacheSlot(page)];
    if (cached.page != page || cached.write_generation != cache_generation_) {
      WriteWordSlow(addr, value);
      return;
    }
    const uint32_t word = WordInPage(addr & page_mask_);
    uint64_t* const bits = cached.write_bits;
    timing_.CountAccess(/*instrumented=*/bits != nullptr);
    if (bits != nullptr) {
      filter_.CountShared(/*is_write=*/true);
      bits[word >> 6] |= uint64_t{1} << (word & 63);
    }
    std::memcpy(cached.data + word * kWordSize, &value, kWordSize);
  }

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
  void Compute(uint64_t units) {
    Poll();
    timing_.CountCompute(units);
  }

  // Called by the DsmSystem node-thread body just before the implicit
  // final barrier: with epoch-batched detection (--detect-batch > 1) the
  // master must flush any still-queued check lists at that barrier even if
  // it falls mid-batch, and every node releases its deferred bitmaps.
  void MarkFinalBarrier();

  // An instrumented access that ATOM could not prove private but that turns
  // out, at run time, to miss the shared segment (§5.1: the majority of
  // runtime calls to the analysis routine are for private data).
  void PrivateAccess(uint64_t va, bool is_write) {
    Poll();
    timing_.CountAccess(/*instrumented=*/opts_.race_detection);
    if (opts_.race_detection) {
      AccessFilter::Result result = filter_.OnAccess(va, is_write);
      CVM_CHECK(!result.shared) << "private VA resolved as shared";
    }
  }

  // Simulated-VA allocator for private (LocalArray) data.
  uint64_t AllocPrivateVa(uint64_t bytes);

  // Tags subsequent accesses with a source site, consumed by the §6.1
  // watchpoint machinery during replay runs.
  void SetSite(const char* site) { site_ = site; }

  // ---------------- Post-run metric snapshots ----------------

  // Post-mortem support: dumps every retained bitmap pair into the trace.
  void DumpTraceBitmaps(class PostMortemTrace& trace) const;

  AccessCounters access_counters() const { return filter_.counters(); }
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

  // Called by the DsmSystem node-thread body after a RunAbortError unwound
  // the app: discards the torn epoch and restores the last consistent cut.
  void RecoverAfterAbort(const RunAbortError& err);

  // Serves the inbox until the fabric closes. DsmSystem::Run calls it once
  // the body and its final barrier are done, so peers still running can be
  // answered.
  void ServeUntilClosed();

 private:
  friend class DsmSystem;
  friend class LockManager;
  friend class BarrierCoordinator;

  // ---- ProtocolHost (the protocol layer's view of this node) ----
  NodeId self() const override { return id_; }
  uint64_t page_size() const override { return opts_.page_size; }
  const CostParams& costs() const override { return opts_.costs; }
  WriteDetection write_detection() const override { return opts_.write_detection; }
  PageTable& pages() override { return pages_; }
  BitmapStore& bitmaps() override { return bitmaps_; }
  IntervalLog& log() override { return log_; }
  NodeTiming& timing() override { return timing_; }
  IntervalIndex current_interval() const override { return cur_interval_; }
  EpochId current_epoch() const override { return epoch_; }
  const FlatIdSet<PageId>& current_writes() const override { return cur_writes_; }
  void NoteWrite(PageId page) override { cur_writes_.Insert(page); }
  void Send(NodeId to, Payload payload) override;
  void ChargeMessage(size_t bytes, size_t read_notice_bytes) override;
  void Await(const std::function<bool()>& ready) override;
  const std::vector<uint8_t>* PokedPage(PageId page) override;
  const Frame& zero_frame() override;
  obs::Tracer* tracer() override { return tracer_; }
  DiffObs* diff_obs() override { return &diff_obs_; }
  void CountPageFetch() override;
  void TraceInstant(const char* name, const char* cat, const char* arg_name = nullptr,
                    uint64_t arg_value = 0) override;

  // ---- Inbox service ----
  // Dispatches every frame already queued; one atomic load when the inbox is
  // empty. Called at the top of every API entry.
  void Poll() {
    if (inbox_pending_.load(std::memory_order_acquire) != 0) {
      Drain();
    }
  }
  void Drain();
  // A wait on peers that may have crashed. With a crash plan armed, a dead
  // peer never answers, so the wait serves the inbox in short wall-clock
  // ticks and runs `probe` after every tick that ends unready; a probe that
  // reaches a dead node surfaces kPeerUnreachable and aborts the run.
  // Without a crash plan it is a plain wait. The barrier waits pass probes
  // aimed at the nodes they wait on; Await (every other wait: page replies,
  // flush and update acks, lock grants, detection rounds) probes every
  // other node.
  void AwaitWatchful(const std::function<bool()>& ready, const std::function<void()>& probe);
  // Shared body of Await/AwaitWatchful; no deadline waits for as long as it
  // takes, else false if the deadline passed before ready() held.
  bool AwaitUntil(std::optional<std::chrono::steady_clock::time_point> deadline,
                  const std::function<bool()>& ready);
  // One inbound frame: dropped if this node has crashed, else dispatched.
  void Serve(Message& msg);

  // ---- Causal flow tracing ----
  // Called by Send: stamps a TraceContext on the outbound message —
  // inheriting the chain of the message being dispatched when this send
  // forwards the same payload kind, starting a fresh chain (with the inbound
  // chain as parent) otherwise — and emits the chain's 's' step.
  void StampFlowContext(Message& msg);
  // Dispatch wrapper: runs the handler, then emits the receive step — 't'
  // if the handler forwarded the chain onward, 'f' if it ended here.
  // Emission is post-dispatch because the forward/terminal distinction is
  // unknowable before the handler runs.
  void DispatchWithFlow(Message& msg);

  // ---- Shared-access internals ----
  // The full access bodies, for page-cache misses: they may fault, record a
  // new bitmap pair or read notice, or log a watch hit, and then refill the
  // page's cache entry.
  uint32_t ReadWordSlow(GlobalAddr addr);
  void WriteWordSlow(GlobalAddr addr, uint32_t value);
  void ReadFault(PageId page);
  void WriteFault(PageId page);

  // ---- Page cache ----
  // One resolved page: its data and the words of the current interval's
  // bitmaps. A read (write) may take the inline path only while
  // read_generation (write_generation) equals cache_generation_; a kind that
  // may not is filled with 0, which no generation equals. A null bitmap
  // pointer means that access kind is not instrumented. Every event that can
  // move page data or bitmap storage (a served frame, a fault, an interval
  // boundary, a write that swaps a shared frame for a private copy) bumps
  // the generation first.
  struct CachedPage {
    PageId page = -1;
    uint64_t read_generation = 0;
    uint64_t write_generation = 0;
    // The page's frame bytes; a shared frame is never cached writable.
    uint8_t* data = nullptr;
    uint64_t* read_bits = nullptr;
    uint64_t* write_bits = nullptr;
  };
  static constexpr uint32_t kPageCacheEntries = 64;  // Direct-mapped.
  static uint32_t CacheSlot(PageId page) {
    return static_cast<uint32_t>(page) & (kPageCacheEntries - 1);
  }
  // Drops every entry at once. Called wherever page state, the interval, the
  // read-notice set or the bitmap store may change: every served frame,
  // interval boundaries, faults, garbage collection and rollback.
  void InvalidatePageCache() { ++cache_generation_; }
  // Caches `page` after a completed slow-path access that used `bitmaps`
  // (null if it recorded nothing). With detection on, a hit must add no
  // accounting, so reads hit only once the pair and the page's read notice
  // exist, and instrumented writes only once the pair does. Nothing is
  // cached while a watchpoint is set (every access must log its hit) or
  // while the protocol has work queued for OnAccessComplete.
  void FillPageCache(PageId page, PageAccessBitmaps* bitmaps);

  // ---- Interval machinery ----
  void EndInterval();
  void BeginInterval();
  void ApplyIntervalRecords(const std::vector<IntervalRecord>& records);
  void GarbageCollect();

  // ---- Observability (no-ops when obs is off) ----
  void InitObservability();
  // Adds the per-bucket overhead accumulated since the last publish to the
  // shared metric counters (called at barriers, before the epoch snapshot,
  // and once more when the run ends).
  void PublishOverhead();

  // ---- Crash / abort machinery ----
  // Fail-stop trigger: if the armed crash plan names this node and the
  // current epoch, marks the node dead in the fabric and throws.
  void MaybeCrashAtBarrier();
  // Throws RunAbortError if a peer crash has torn the current run.
  void ThrowIfAborted();
  // Send surfaced kPeerUnreachable: suspicion bookkeeping, then initiates
  // the run abort.
  void OnPeerUnreachable(NodeId peer);
  // First detector: flips aborted_ and broadcasts RunAbortMsg to every node
  // not marked dead, resending each (up to kAbortSends) until it lands.
  void InitiateAbort(NodeId dead, EpochId epoch);
  // Captures the per-barrier consistent cut (crash-armed runs only).
  void CaptureCheckpoint();
  // Restores the last consistent cut; returns #locks whose state diverged.
  size_t RollbackToCheckpoint();
  // Control-plane handlers.
  void OnHeartbeatProbe(const Message& msg);
  void OnRunAbort(const Message& msg);

  // ---------------- State ----------------

  DsmSystem* const system_;
  Network& net_;
  const NodeId id_;
  // This node's inbox frame count, polled on every access (Poll).
  const std::atomic<size_t>& inbox_pending_;
  const DsmOptions& opts_;
  // opts_.page_size is a power of two (DsmSystem checks): addr >> page_shift_
  // is the page, addr & page_mask_ the offset in it.
  const uint32_t page_shift_;
  const uint64_t page_mask_;

  // True while a handler runs: handlers must never block (Await checks).
  bool in_handler_ = false;

  // Memory.
  PageTable pages_;
  std::array<CachedPage, kPageCacheEntries> page_cache_ = {};
  uint64_t cache_generation_ = 1;  // Value-initialized entries never match.

  // Consistency metadata.
  VectorClock vc_;
  IntervalIndex cur_interval_ = 0;
  EpochId epoch_ = 0;
  IntervalLog log_;
  BitmapStore bitmaps_;
  // Flat sorted sets: Clear() at interval boundaries keeps their storage, so
  // steady-state access tracking allocates nothing.
  FlatIdSet<PageId> cur_reads_;
  FlatIdSet<PageId> cur_writes_;

  // Observability (pointers are null when tracing/metrics are disabled).
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
  std::array<int64_t, kNumBuckets> overhead_published_ps_ = {};

  // Crash / abort state. crashed_: this node hit its fail-stop point and its
  // NIC is dead; Serve drops anything still in flight to it. aborted_: some
  // node crashed and the current epoch is torn; every Await returns early
  // and re-raises via ThrowIfAborted.
  bool crashed_ = false;
  bool aborted_ = false;
  NodeId abort_dead_ = kNoNode;
  EpochId abort_epoch_ = -1;
  uint64_t heartbeat_token_ = 0;
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
