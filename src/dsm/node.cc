#include "src/dsm/node.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/dsm/dsm.h"
#include "src/fault/fault.h"
#include "src/obs/span.h"
#include "src/race/bitmap_codec.h"

namespace cvm {

namespace {

// Per-thread dispatch state: the context of the message currently being
// handled, so sends issued from inside the handler can tell "forward of the
// same chain" (same payload kind) from "new chain caused by it". Thread-local
// because each node's handlers run on that node's own thread; null whenever
// the thread runs application code.
struct DispatchFlowScope {
  obs::TraceContext ctx;
  size_t payload_kind = 0;
  bool extended = false;  // A send inherited the chain (it continues).
};

thread_local DispatchFlowScope* t_dispatch_flow = nullptr;

// Sends of one RunAbortMsg to one target before the aborting node gives up
// on it. The structural faults lose frames over bounded sequence windows (the
// canonical partition window, 96 sequence numbers, is the longest), so a
// resend on a fresh sequence number soon lands; the bound only ends the loop
// on a link that loses every frame, whose far end then finds its own sends
// exhausted and aborts by itself.
constexpr int kAbortSends = 256;

}  // namespace

Node::Node(NodeId id, DsmSystem* system)
    : system_(system),
      net_(system->network()),
      id_(id),
      inbox_pending_(net_.PendingCount(id)),
      opts_(system->options()),
      page_shift_(static_cast<uint32_t>(std::countr_zero(opts_.page_size))),
      page_mask_(opts_.page_size - 1),
      pages_(system->segment().num_pages(), opts_.page_size),
      vc_(opts_.num_nodes),
      log_(opts_.num_nodes),
      bitmaps_(static_cast<uint32_t>(opts_.page_size / kWordSize)),
      filter_(opts_.page_size, system->segment().size_bytes()),
      timing_(opts_.costs),
      protocol_(CoherenceProtocol::Make(opts_.protocol, *this)),
      lock_mgr_(*this),
      barrier_(*this) {
  protocol_->RegisterHandlers(dispatcher_);
  lock_mgr_.RegisterHandlers(dispatcher_);
  barrier_.RegisterHandlers(dispatcher_);
  // Crash-tolerance control plane (docs/FAULTS.md "Crash faults & recovery").
  dispatcher_.Register<HeartbeatProbeMsg>([this](const Message& msg) { OnHeartbeatProbe(msg); });
  // An ack only says the peer is alive: a watchful wait keeps waiting.
  dispatcher_.Register<HeartbeatAckMsg>([](const Message&) {});
  dispatcher_.Register<RunAbortMsg>([this](const Message& msg) { OnRunAbort(msg); });
  dispatcher_.SetUnhandledHook([this](const Message& msg) {
    if (tracer_ == nullptr) {
      return;
    }
    // Identify the stray traffic fully: who sent it and what it claimed to
    // be, by index and by name.
    obs::TraceEvent event;
    event.name = "dispatch.unhandled";
    event.cat = "net";
    event.phase = 'i';
    event.node = id_;
    event.arg_name = "from";
    event.arg_value = static_cast<uint64_t>(msg.from >= 0 ? msg.from : 0);
    event.arg2_name = "kind";
    event.arg2_value = msg.payload.index();
    event.str_arg_name = "kind_name";
    event.str_arg_value = msg.KindName();
    event.epoch = epoch_;
    event.sim_ts_ns = timing_.now_ns();
    tracer_->Emit(event);
  });
  InitObservability();
  BeginInterval();  // Interval 0.
  CaptureCheckpoint();  // Epoch-0 cut: covers a crash in the first epoch.
}

void Node::InitObservability() {
  tracer_ = system_->tracer();
  metrics_ = system_->metrics();
  diff_obs_.tracer = tracer_;
  diff_obs_.node = id_;
  obs::Counter* twins = nullptr;
  obs::Counter* installs = nullptr;
  obs::Counter* invalidations = nullptr;
  if (metrics_ != nullptr) {
    mh_.page_faults = metrics_->counter("dsm.page_faults");
    mh_.page_fetches = metrics_->counter("dsm.page_fetches");
    mh_.locks_acquired = metrics_->counter("dsm.locks_acquired");
    mh_.barriers = metrics_->counter("dsm.barriers");
    mh_.intervals = metrics_->counter("dsm.intervals");
    for (int b = 0; b < kNumBuckets; ++b) {
      mh_.overhead[static_cast<size_t>(b)] =
          metrics_->counter(BucketMetricName(static_cast<Bucket>(b)));
    }
    twins = metrics_->counter("mem.twins_created");
    installs = metrics_->counter("mem.page_installs");
    invalidations = metrics_->counter("mem.page_invalidations");
    diff_obs_.diffs_created = metrics_->counter("mem.diffs_created");
    diff_obs_.diff_size_words = metrics_->histogram("mem.diff_size_words");
    diff_obs_.words_applied = metrics_->counter("mem.diff_words_applied");
    peer_suspected_counter_ = metrics_->counter("net.peer.suspected");
    locks_recovered_counter_ = metrics_->counter("dsm.lock.recovered");
  }
  if (tracer_ != nullptr || metrics_ != nullptr) {
    pages_.AttachObservability(tracer_, id_, twins, installs, invalidations);
  }
  barrier_.InitObservability(metrics_);
  dispatcher_.AttachMetrics(metrics_);
}

void Node::TraceInstant(const char* name, const char* cat, const char* arg_name,
                        uint64_t arg_value) {
  if (tracer_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.phase = 'i';
  event.node = id_;
  event.epoch = epoch_;
  event.sim_ts_ns = timing_.now_ns();
  event.arg_name = arg_name;
  event.arg_value = arg_value;
  tracer_->Emit(event);
}

void Node::CountPageFetch() {
  if (mh_.page_fetches != nullptr) {
    mh_.page_fetches->Increment();
  }
}

void Node::PublishOverhead() {
  if (metrics_ == nullptr) {
    return;
  }
  for (int b = 0; b < kNumBuckets; ++b) {
    const Bucket bucket = static_cast<Bucket>(b);
    const size_t i = static_cast<size_t>(b);
    const int64_t total = timing_.overhead_ps(bucket);
    const int64_t delta = total - overhead_published_ps_[i];
    if (delta > 0) {
      mh_.overhead[i]->Add(system_->PublishOverheadPs(bucket, delta));
      overhead_published_ps_[i] = total;
    }
  }
}

Node::~Node() = default;

int Node::num_nodes() const { return opts_.num_nodes; }

const std::vector<uint8_t>* Node::PokedPage(PageId page) {
  return system_->segment().PokedPage(page);
}

const Frame& Node::zero_frame() { return system_->zero_frame(); }

void Node::Send(NodeId to, Payload payload) {
  Message msg;
  msg.from = id_;
  msg.to = to;
  msg.payload = std::move(payload);
  StampFlowContext(msg);
  // Under fault injection the reliable transport returns the simulated time
  // this sender spent in retransmission backoff and injected delay; charge it
  // to the node's clock like any other network cost. Zero on the clean path.
  const SendOutcome outcome = net_.Send(std::move(msg));
  timing_.Charge(Bucket::kNone, outcome.penalty_ns);
  if (outcome.unreachable()) {
    OnPeerUnreachable(to);
  }
}

// ---------------- Inbox service ----------------

void Node::Serve(Message& msg) {
  if (crashed_) {
    // Fail-stop: a crashed node answers nothing, not even frames that were
    // already in its inbox when it died.
    return;
  }
  InvalidatePageCache();  // Handlers move ownership, apply notices, install pages.
  in_handler_ = true;
  DispatchWithFlow(msg);
  in_handler_ = false;
}

void Node::Drain() {
  while (std::optional<Message> msg = net_.TryRecv(id_)) {
    Serve(*msg);
  }
}

void Node::Await(const std::function<bool()>& ready) {
  // A peer may die with this node's request still unanswered in its inbox,
  // so a crash-armed wait probes every other node on each tick; a probe to
  // the dead one surfaces kPeerUnreachable and aborts the run.
  AwaitWatchful(ready, [this] {
    for (NodeId n = 0; n < static_cast<NodeId>(opts_.num_nodes) && !aborted_; ++n) {
      if (n != id_) {
        Send(n, HeartbeatProbeMsg{epoch_, ++heartbeat_token_});
      }
    }
  });
}

void Node::AwaitWatchful(const std::function<bool()>& ready,
                         const std::function<void()>& probe) {
  if (!system_->crash_armed()) {
    AwaitUntil(std::nullopt, ready);
    return;
  }
  // How long a waiter serves its inbox before probing the nodes it waits
  // on. Probes to live nodes are harmless (acked and ignored), so this
  // trades only a little idle-path chatter against crash-detection latency.
  constexpr std::chrono::milliseconds kSuspicionInterval(25);
  while (!AwaitUntil(std::chrono::steady_clock::now() + kSuspicionInterval, ready)) {
    probe();
  }
}

bool Node::AwaitUntil(std::optional<std::chrono::steady_clock::time_point> deadline,
                      const std::function<bool()>& ready) {
  CVM_CHECK(!in_handler_) << "node " << id_ << ": a message handler tried to block";
  CVM_CHECK(!net_.closed()) << "node " << id_ << " waits on a closed fabric";
  while (!ready() && !aborted_) {
    std::optional<Message> msg =
        deadline.has_value() ? net_.RecvUntil(id_, *deadline) : net_.Recv(id_);
    if (!msg.has_value()) {
      CVM_CHECK(!net_.closed()) << "node " << id_ << " waits on a closed fabric";
      return false;  // The deadline passed.
    }
    Serve(*msg);
  }
  ThrowIfAborted();
  return true;
}

void Node::ServeUntilClosed() {
  while (std::optional<Message> msg = net_.Recv(id_)) {
    Serve(*msg);
  }
}

void Node::StampFlowContext(Message& msg) {
  if (tracer_ == nullptr || !tracer_->flows_enabled()) {
    return;
  }
  DispatchFlowScope* scope = t_dispatch_flow;
  if (scope != nullptr && scope->ctx.stamped() && scope->payload_kind == msg.payload.index()) {
    // Identity-preserving forward (lock-request routing, page-request
    // forwarding): the outbound message IS the inbound one, one hop later.
    // Inherit the chain so Perfetto draws s -> t -> ... -> f through every
    // intermediary; the dispatch wrapper will emit this hop as a 't'.
    msg.ctx = scope->ctx;
    ++msg.ctx.hop;
    msg.ctx.send_sim_ns = static_cast<uint64_t>(timing_.now_ns());
    scope->extended = true;
    return;
  }
  msg.ctx.origin = id_;
  msg.ctx.epoch = epoch_;
  msg.ctx.causal_id = tracer_->NextFlowId();
  msg.ctx.parent_id = scope != nullptr && scope->ctx.stamped() ? scope->ctx.causal_id : 0;
  msg.ctx.send_sim_ns = static_cast<uint64_t>(timing_.now_ns());
  obs::TraceEvent event;
  event.name = PayloadKindName(msg.payload.index());
  event.cat = "flow";
  event.phase = 's';
  event.node = id_;
  event.epoch = epoch_;
  event.sim_ts_ns = timing_.now_ns();
  event.flow_id = msg.ctx.causal_id;
  event.arg_name = "to";
  event.arg_value = static_cast<uint64_t>(msg.to);
  if (msg.ctx.parent_id != 0) {
    event.arg2_name = "parent";
    event.arg2_value = msg.ctx.parent_id;
  }
  tracer_->Emit(event);
}

void Node::DispatchWithFlow(Message& msg) {
  if (tracer_ != nullptr && tracer_->flows_enabled() && msg.ctx.stamped()) {
    DispatchFlowScope scope;
    scope.ctx = msg.ctx;
    scope.payload_kind = msg.payload.index();
    t_dispatch_flow = &scope;
    dispatcher_.Dispatch(msg);
    t_dispatch_flow = nullptr;
    // Receive step, after the handler so we know whether the chain went on
    // ('t') or terminated here ('f'). The timestamp is the modeled arrival:
    // at least one message cost after the send, and never before this
    // node's own clock — per-node clocks only synchronize at sync points,
    // and a backwards arrow would be a lie about causality.
    obs::TraceEvent event;
    event.name = PayloadKindName(msg.payload.index());
    event.cat = "flow";
    event.phase = scope.extended ? 't' : 'f';
    event.node = id_;
    event.flow_id = msg.ctx.causal_id;
    event.arg_name = "from";
    event.arg_value = static_cast<uint64_t>(msg.from >= 0 ? msg.from : 0);
    event.arg2_name = "hop";
    event.arg2_value = msg.ctx.hop;
    event.epoch = epoch_;
    const double arrival = static_cast<double>(msg.ctx.send_sim_ns) +
                           opts_.costs.MessageCost(msg.wire_bytes);
    event.sim_ts_ns = std::max(timing_.now_ns(), arrival);
    tracer_->Emit(event);
    return;
  }
  dispatcher_.Dispatch(msg);
}

// ---------------- Cost helpers ----------------

void Node::ChargeMessage(size_t bytes, size_t read_notice_bytes) {
  CVM_CHECK_GE(bytes, read_notice_bytes);
  timing_.Charge(Bucket::kNone, opts_.costs.MessageCost(bytes - read_notice_bytes));
  if (read_notice_bytes > 0) {
    timing_.Charge(Bucket::kCvmMods,
                   opts_.costs.per_byte_ns * static_cast<double>(read_notice_bytes));
  }
}

// ---------------- Shared accesses ----------------

uint64_t Node::AllocPrivateVa(uint64_t bytes) {
  const uint64_t va = private_va_next_;
  private_va_next_ += (bytes + kWordSize - 1) / kWordSize * kWordSize;
  return va;
}

uint32_t Node::ReadWordSlow(GlobalAddr addr) {
  timing_.CountAccess(/*instrumented=*/opts_.race_detection);
  const PageId page = static_cast<PageId>(addr >> page_shift_);
  const uint32_t word = WordInPage(addr & page_mask_);
  PageAccessBitmaps* bitmaps = nullptr;
  if (opts_.race_detection) {
    AccessFilter::Result result = filter_.OnAccess(SharedVa(addr), /*is_write=*/false);
    CVM_CHECK(result.shared);
    bitmaps = &bitmaps_.Record(cur_interval_, page);
    bitmaps->read.Set(word);
    // Only a page's first read in the interval adds a read notice.
    if (cur_reads_.Insert(page)) {
      timing_.Charge(Bucket::kCvmMods, opts_.costs.notice_setup_ns);
    }
    if (opts_.watch.has_value()) {
      const Watchpoint& w = *opts_.watch;
      if (addr >= w.addr && addr < w.addr + w.bytes && (w.epoch == -1 || epoch_ == w.epoch)) {
        system_->AddWatchHit(
            WatchHit{id_, IntervalId{id_, cur_interval_}, epoch_, addr, false, site_});
      }
    }
  }
  if (!pages_.Readable(page)) {
    ReadFault(page);
  }
  const uint32_t value = pages_.ReadWord(page, word);
  protocol_->OnAccessComplete(page);
  FillPageCache(page, bitmaps);
  return value;
}

void Node::WriteWordSlow(GlobalAddr addr, uint32_t value) {
  // §6.5: under diff-derived write detection, store instructions are not
  // instrumented at all — writes are mined from diffs at release time.
  const bool instrumented =
      opts_.race_detection && opts_.write_detection == WriteDetection::kInstrumentation;
  timing_.CountAccess(instrumented);
  const PageId page = static_cast<PageId>(addr >> page_shift_);
  const uint32_t word = WordInPage(addr & page_mask_);
  PageAccessBitmaps* bitmaps = nullptr;
  if (instrumented) {
    AccessFilter::Result result = filter_.OnAccess(SharedVa(addr), /*is_write=*/true);
    CVM_CHECK(result.shared);
    bitmaps = &bitmaps_.Record(cur_interval_, page);
    bitmaps->write.Set(word);
    if (opts_.watch.has_value()) {
      const Watchpoint& w = *opts_.watch;
      if (addr >= w.addr && addr < w.addr + w.bytes && (w.epoch == -1 || epoch_ == w.epoch)) {
        system_->AddWatchHit(
            WatchHit{id_, IntervalId{id_, cur_interval_}, epoch_, addr, true, site_});
      }
    }
  }
  if (!pages_.Writable(page)) {
    WriteFault(page);
  }
  if (pages_.Find(page)->shared) {
    InvalidatePageCache();  // The write swaps in a private copy of the frame.
  }
  pages_.WriteWord(page, word, value);
  protocol_->OnAccessComplete(page);
  FillPageCache(page, bitmaps);
}

void Node::FillPageCache(PageId page, PageAccessBitmaps* bitmaps) {
  if (opts_.watch.has_value() || protocol_->AccessWorkQueued()) {
    return;
  }
  PageEntry& entry = pages_.entry(page);
  if (entry.state == PageState::kInvalid) {
    return;
  }
  const bool detect = opts_.race_detection;
  const bool detect_writes = detect && opts_.write_detection == WriteDetection::kInstrumentation;
  const bool readable = !detect || (bitmaps != nullptr && cur_reads_.Contains(page));
  // A shared frame is cached for reads only: no write may reach it.
  const bool writable = entry.state == PageState::kReadWrite && !entry.shared &&
                        (!detect_writes || bitmaps != nullptr);
  CachedPage& cached = page_cache_[CacheSlot(page)];
  cached.page = page;
  cached.read_generation = readable ? cache_generation_ : 0;
  cached.write_generation = writable ? cache_generation_ : 0;
  cached.data = entry.frame->data();
  cached.read_bits = detect && bitmaps != nullptr ? bitmaps->read.word_data() : nullptr;
  cached.write_bits = detect_writes && bitmaps != nullptr ? bitmaps->write.word_data() : nullptr;
}

void Node::ReadFault(PageId page) {
  InvalidatePageCache();
  ++page_faults_;
  obs::Span span(tracer_, id_, "page.fault.read", "mem", timing_, epoch_);
  span.SetArg("page", static_cast<uint64_t>(page));
  if (mh_.page_faults != nullptr) {
    mh_.page_faults->Increment();
  }
  timing_.Charge(Bucket::kNone, opts_.costs.page_fault_ns);
  protocol_->OnReadFault(page);
}

void Node::WriteFault(PageId page) {
  InvalidatePageCache();
  ++page_faults_;
  obs::Span span(tracer_, id_, "page.fault.write", "mem", timing_, epoch_);
  span.SetArg("page", static_cast<uint64_t>(page));
  if (mh_.page_faults != nullptr) {
    mh_.page_faults->Increment();
  }
  timing_.Charge(Bucket::kNone, opts_.costs.page_fault_ns);
  protocol_->OnWriteFault(page);
}

// ---------------- Intervals ----------------

void Node::BeginInterval() {
  InvalidatePageCache();
  cur_interval_ = vc_.Tick(id_);
  cur_reads_.Clear();
  cur_writes_.Clear();
  TraceInstant("interval.open", "protocol", "interval", static_cast<uint64_t>(cur_interval_));
}

void Node::EndInterval() {
  InvalidatePageCache();
  // Protocol-specific closing action first: diff flushing (multi-writer, may
  // mine write notices into cur_writes_) or written-page downgrade
  // (single-writer family).
  protocol_->OnIntervalEnd();

  IntervalRecord record;
  record.id = IntervalId{id_, cur_interval_};
  record.vc = vc_;
  record.epoch = epoch_;
  record.write_pages.assign(cur_writes_.begin(), cur_writes_.end());
  record.read_pages.assign(cur_reads_.begin(), cur_reads_.end());
  log_.Insert(record);
  if (opts_.race_detection && opts_.postmortem_trace) {
    system_->trace().AddRecord(record);
  }
  max_log_size_ = std::max(max_log_size_, log_.size());
  max_retained_pairs_ = std::max(max_retained_pairs_, bitmaps_.RetainedPairs());
  ++intervals_created_;
  TraceInstant("interval.close", "protocol", "interval", static_cast<uint64_t>(cur_interval_));
  if (mh_.intervals != nullptr) {
    mh_.intervals->Increment();
  }
  timing_.Charge(Bucket::kNone, opts_.costs.interval_setup_ns);
  if (opts_.race_detection) {
    // The race-detection additions to the interval structure (read-notice
    // list wiring) are CVM-modification overhead.
    timing_.Charge(Bucket::kCvmMods, opts_.costs.notice_setup_ns);
  }
  cur_reads_.Clear();
  cur_writes_.Clear();

  // Post-publish action: ERC pushes the record to every node and blocks for
  // acks; the lazy protocols do nothing here.
  protocol_->OnIntervalPublished(record);
}

void Node::ApplyIntervalRecords(const std::vector<IntervalRecord>& records) {
  for (const IntervalRecord& record : records) {
    if (log_.Contains(record.id)) {
      protocol_->OnDuplicateRecord(record);
      continue;
    }
    log_.Insert(record);
    if (record.id.node == id_) {
      continue;
    }
    protocol_->ApplyWriteNotices(record);
  }
}

void Node::GarbageCollect() {
  InvalidatePageCache();
  log_.DiscardDominatedBy(vc_);
  protocol_->OnGarbageCollect(vc_);
  if (opts_.postmortem_trace) {
    return;  // The post-run trace dump needs every retained bitmap.
  }
  // Epochs whose check lists are still queued at the master have not been
  // compared yet, so their word bitmaps must survive until the detection
  // flush (its bitmap round reads them). With detect_batch = 1 every
  // barrier flushes.
  if (opts_.race_detection && !final_barrier_ && (epoch_ + 1) % opts_.detect_batch != 0) {
    return;
  }
  bitmaps_.DiscardThrough(cur_interval_);  // Epoch checked; trace data can go.
}

// ---------------- Locks ----------------

void Node::Lock(LockId lock) {
  CVM_CHECK_GE(lock, 0);
  CVM_CHECK_LT(lock, opts_.num_locks);
  Poll();
  ThrowIfAborted();
  obs::Span span(tracer_, id_, "lock.acquire", "sync", timing_, epoch_);
  span.SetArg("lock", static_cast<uint64_t>(lock));
  if (mh_.locks_acquired != nullptr) {
    mh_.locks_acquired->Increment();
  }
  timing_.Charge(Bucket::kNone, opts_.costs.lock_op_ns);
  EndInterval();
  lock_mgr_.Acquire(lock);
  BeginInterval();
}

void Node::Unlock(LockId lock) {
  CVM_CHECK_GE(lock, 0);
  CVM_CHECK_LT(lock, opts_.num_locks);
  Poll();
  ThrowIfAborted();
  TraceInstant("lock.release", "sync", "lock", static_cast<uint64_t>(lock));
  timing_.Charge(Bucket::kNone, opts_.costs.lock_op_ns);
  CVM_CHECK(lock_mgr_.Held(lock)) << "unlock of lock " << lock << " not held by node " << id_;
  EndInterval();
  lock_mgr_.Release(lock);
  BeginInterval();
}

// ---------------- Barriers ----------------

void Node::MarkFinalBarrier() { final_barrier_ = true; }

void Node::Barrier() {
  Poll();
  ThrowIfAborted();
  MaybeCrashAtBarrier();
  // Counted at entry: every node's entry happens-before the master's (or
  // tree root's) snapshot of this epoch, so each metrics row holds one
  // entry per node.
  if (mh_.barriers != nullptr) {
    mh_.barriers->Increment();
  }
  obs::Span span(tracer_, id_, "barrier", "sync", timing_, epoch_);
  span.SetArg("epoch", static_cast<uint64_t>(epoch_));
  timing_.Charge(Bucket::kNone, opts_.costs.barrier_op_ns);
  EndInterval();    // Epoch-body interval.
  BeginInterval();  // In-barrier interval (paper: barrier = release+acquire).
  EndInterval();    // Published empty; keeps "2 intervals per barrier".
  const EpochId epoch = epoch_;

  barrier_.RunBarrier(epoch);

  if (opts_.race_detection) {
    // Reset of the statically-allocated access bitmaps for the new epoch —
    // part of the paper's "CVM Mods" overhead, proportional to the shared
    // segment size.
    const double used_pages = static_cast<double>(
        (system_->segment().used_bytes() + opts_.page_size - 1) / opts_.page_size);
    timing_.Charge(Bucket::kCvmMods, opts_.costs.bitmap_clear_page_ns * used_pages);
  }
  ++epoch_;
  ++barriers_;
  if (tracer_ != nullptr) {
    tracer_->Drain(id_);  // Barrier = natural quiescent point for the ring.
  }
  BeginInterval();  // New epoch-body interval.
  CaptureCheckpoint();
}

// ---------------- Crash tolerance ----------------

void Node::MaybeCrashAtBarrier() {
  const fault::FaultInjector* injector = system_->fault_injector();
  if (injector == nullptr || !injector->plan().crash_enabled() || crashed_) {
    return;
  }
  if (injector->crash_node() != id_ || epoch_ != injector->plan().crash_epoch) {
    return;
  }
  // Fail-stop: mark the NIC dead first so no frame sent after this instant
  // reaches a survivor, then unwind the application.
  crashed_ = true;
  TraceInstant("node.crash", "fault", "epoch", static_cast<uint64_t>(epoch_));
  net_.MarkNodeDead(id_);
  throw RunAbortError{id_, epoch_, /*self_crash=*/true};
}

void Node::ThrowIfAborted() {
  if (aborted_) {
    throw RunAbortError{abort_dead_, abort_epoch_, /*self_crash=*/false};
  }
}

void Node::OnPeerUnreachable(NodeId peer) {
  if (aborted_ || crashed_ || peer == id_) {
    return;
  }
  if (peer_suspected_counter_ != nullptr) {
    peer_suspected_counter_->Increment();
  }
  TraceInstant("peer.suspect", "fault", "peer",
               static_cast<uint64_t>(peer >= 0 ? peer : 0));
  // An exhausted send means the message is permanently lost, so the epoch is
  // torn whether or not the peer is still breathing: abort unconditionally.
  InitiateAbort(peer, epoch_);
}

void Node::InitiateAbort(NodeId dead, EpochId epoch) {
  if (aborted_ || crashed_) {
    return;
  }
  aborted_ = true;
  abort_dead_ = dead;
  abort_epoch_ = epoch;
  TraceInstant("run.abort", "fault", "dead",
               static_cast<uint64_t>(dead >= 0 ? dead : 0));
  // Wake every other node the fabric has not marked dead, the suspect
  // included: an exhausted send proves a frame lost, not its target dead,
  // and a live suspect may be waiting on this node. A lost abort would leave
  // its target waiting forever, so each is resent past the send budget until
  // it lands (kAbortSends bounds it). A resend follows a spent budget, so it
  // makes one attempt, not another full retransmission run. Send returns no
  // verdict, so the loop sends for itself.
  for (NodeId n = 0; n < static_cast<NodeId>(opts_.num_nodes); ++n) {
    for (int sends = 0; n != id_ && sends < kAbortSends && !net_.NodeDead(n); ++sends) {
      Message msg;
      msg.from = id_;
      msg.to = n;
      msg.payload = RunAbortMsg{epoch, dead};
      StampFlowContext(msg);
      const SendOutcome outcome = net_.Send(std::move(msg), sends == 0 ? 0 : 1);
      timing_.Charge(Bucket::kNone, outcome.penalty_ns);
      if (!outcome.unreachable()) {
        break;
      }
    }
  }
}

void Node::OnHeartbeatProbe(const Message& msg) {
  const auto& probe = std::get<HeartbeatProbeMsg>(msg.payload);
  Send(msg.from, HeartbeatAckMsg{probe.epoch, probe.token});
}

void Node::OnRunAbort(const Message& msg) {
  const auto& abort = std::get<RunAbortMsg>(msg.payload);
  if (aborted_) {
    return;
  }
  aborted_ = true;
  abort_dead_ = abort.dead;
  abort_epoch_ = abort.epoch;
  TraceInstant("run.abort", "fault", "dead",
               static_cast<uint64_t>(abort.dead >= 0 ? abort.dead : 0));
}

void Node::CaptureCheckpoint() {
  if (!system_->crash_armed()) {
    return;  // Healthy runs pay nothing for crash tolerance.
  }
  EpochCheckpoint cp;
  cp.epoch = epoch_;
  cp.vc = vc_;
  cp.cur_interval = cur_interval_;
  cp.log = log_.All();
  bitmaps_.ForEachPair(id_, [&cp](const IntervalId& interval, PageId page,
                                  const PageAccessBitmaps& pair) {
    CheckpointBitmapPair entry;
    entry.interval = interval.index;
    entry.page = page;
    entry.read = BitmapCodec::Encode(pair.read);
    entry.write = BitmapCodec::Encode(pair.write);
    cp.encoded_bitmap_bytes += entry.read.WireBytes() + entry.write.WireBytes();
    cp.bitmaps.push_back(std::move(entry));
  });
  cp.locks = lock_mgr_.SnapshotState();
  if (id_ == 0) {
    cp.reports_published = system_->ReportCount();
  }
  checkpoint_ = std::move(cp);
}

size_t Node::RollbackToCheckpoint() {
  InvalidatePageCache();
  if (!checkpoint_.has_value()) {
    return 0;
  }
  const EpochCheckpoint& cp = *checkpoint_;
  epoch_ = cp.epoch;
  vc_ = cp.vc;
  cur_interval_ = cp.cur_interval;
  log_.Clear();
  for (const IntervalRecord& record : cp.log) {
    log_.Insert(record);
  }
  bitmaps_.Clear();
  for (const CheckpointBitmapPair& entry : cp.bitmaps) {
    PageAccessBitmaps pair;
    pair.read = BitmapCodec::Decode(entry.read);
    pair.write = BitmapCodec::Decode(entry.write);
    bitmaps_.RestorePair(entry.interval, entry.page, pair);
  }
  cur_reads_.Clear();
  cur_writes_.Clear();
  const size_t recovered = lock_mgr_.RestoreState(cp.locks);
  if (id_ == 0) {
    // Reports published during the torn epoch are retracted: survivors must
    // observe exactly the prefix the last consistent cut vouches for.
    system_->TruncateReports(cp.reports_published);
  }
  return recovered;
}

void Node::RecoverAfterAbort(const RunAbortError& err) {
  if (!aborted_) {
    aborted_ = true;
    abort_dead_ = err.dead;
    abort_epoch_ = err.epoch;
  }
  const size_t recovered = RollbackToCheckpoint();
  if (locks_recovered_counter_ != nullptr && recovered > 0) {
    locks_recovered_counter_->Add(recovered);
  }
  TraceInstant("epoch.rollback", "fault", "epoch",
               checkpoint_.has_value() ? static_cast<uint64_t>(checkpoint_->epoch) : 0);
  system_->NoteCrash(err, id_, checkpoint_.has_value() ? checkpoint_->epoch : 0, recovered,
                     checkpoint_.has_value() ? checkpoint_->encoded_bitmap_bytes : 0);
}

void Node::DumpTraceBitmaps(PostMortemTrace& trace) const {
  bitmaps_.ForEachPair(id_, [&trace](const IntervalId& interval, PageId page,
                                     const PageAccessBitmaps& pair) {
    trace.AddBitmaps(interval, page, pair);
  });
}

}  // namespace cvm
