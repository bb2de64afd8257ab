#include "src/dsm/barrier_coordinator.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/dsm/dsm.h"
#include "src/dsm/node.h"
#include "src/obs/span.h"
#include "src/race/bitmap_codec.h"

namespace cvm {

namespace {

// Payload bytes of one bitmap-round entry as actually encoded, and at the
// legacy raw encoding — the difference is what the codec saved on the wire.
size_t ReplyEntryWireBytes(const BitmapReplyEntry& e) {
  return sizeof(IntervalId) + sizeof(PageId) + e.read.WireBytes() + e.write.WireBytes();
}

size_t ReplyEntryRawBytes(const BitmapReplyEntry& e) {
  return sizeof(IntervalId) + sizeof(PageId) + EncodedBitmap::RawWireBytes(e.read.num_bits) +
         EncodedBitmap::RawWireBytes(e.write.num_bits);
}

// Wall-clock tick of the watchful barrier waits used only when a crash plan
// is armed: how long a waiter parks before heartbeat-probing the nodes it is
// waiting on. Probes to live nodes are harmless (acked and ignored), so this
// trades only a little idle-path chatter against crash-detection latency.
constexpr std::chrono::milliseconds kSuspicionInterval(25);

// ---- Combine-tree topology (--barrier-tree) ----
// Heap numbering over node ids: node 0 is the root, node i's children are
// i*fanout+1 .. i*fanout+fanout (clamped to num_nodes). Parent ids are
// always smaller than child ids, which TreeLca exploits.

NodeId TreeParent(NodeId id, int fanout) { return (id - 1) / fanout; }

std::vector<NodeId> TreeChildren(NodeId id, int fanout, int num_nodes) {
  std::vector<NodeId> children;
  for (int c = 1; c <= fanout; ++c) {
    const NodeId child = id * fanout + c;
    if (child >= num_nodes) {
      break;
    }
    children.push_back(child);
  }
  return children;
}

// Lowest common ancestor of two node ids: repeatedly lift whichever is
// deeper (the larger id — parents are always numerically smaller).
NodeId TreeLca(NodeId a, NodeId b, int fanout) {
  while (a != b) {
    if (a > b) {
      a = TreeParent(a, fanout);
    } else {
      b = TreeParent(b, fanout);
    }
  }
  return a;
}

// Depth of the deepest node: the number of up-hops from the last node id.
int TreeHeightOf(int num_nodes, int fanout) {
  int height = 0;
  for (NodeId n = num_nodes - 1; n > 0; n = TreeParent(n, fanout)) {
    ++height;
  }
  return height;
}

// Accumulates master sim time spent inside a detection scope into
// PipelineStats::detect_ns, whatever exit path is taken.
struct DetectTimer {
  const NodeTiming& timing;
  double start_ns;
  double* out;
  ~DetectTimer() { *out += timing.now_ns() - start_ns; }
};

}  // namespace

BarrierCoordinator::BarrierCoordinator(Node& node) : node_(node) {}

void BarrierCoordinator::RegisterHandlers(MessageDispatcher& dispatcher) {
  dispatcher.Register<BarrierArriveMsg>([this](const Message& msg) { OnBarrierArrive(msg); });
  dispatcher.Register<BarrierReleaseMsg>([this](const Message& msg) { OnBarrierRelease(msg); });
  dispatcher.Register<BarrierTreeArriveMsg>([this](const Message& msg) { OnTreeArrive(msg); });
  dispatcher.Register<BarrierTreeReleaseMsg>([this](const Message& msg) { OnTreeRelease(msg); });
  dispatcher.Register<BitmapRequestMsg>([this](const Message& msg) { OnBitmapRequest(msg); });
  dispatcher.Register<BitmapReplyMsg>([this](const Message& msg) { OnBitmapReply(msg); });
  dispatcher.Register<CompareRequestMsg>([this](const Message& msg) { OnCompareRequest(msg); });
  dispatcher.Register<BitmapShipMsg>([this](const Message& msg) { OnBitmapShip(msg); });
  dispatcher.Register<CompareReplyMsg>([this](const Message& msg) { OnCompareReply(msg); });
}

void BarrierCoordinator::InitObservability(obs::MetricsRegistry* metrics) {
  if constexpr (!obs::kObsCompiledIn) {
    return;
  }
  if (metrics == nullptr) {
    return;
  }
  mh_.check_pairs = metrics->counter("race.check_pairs");
  mh_.checklist_entries = metrics->counter("race.checklist_entries");
  mh_.bitmap_pairs_compared = metrics->counter("race.bitmap_pairs_compared");
  mh_.races_reported = metrics->counter("race.races_reported");
  mh_.shard_count = metrics->counter("race.shard.count");
  mh_.bitmap_bytes_raw = metrics->counter("net.bitmap.bytes_raw");
  mh_.bitmap_bytes_wire = metrics->counter("net.bitmap.bytes_wire");
  mh_.bitmap_bytes_saved = metrics->counter("net.bitmap.bytes_saved");
  mh_.remote_pairs = metrics->counter("race.remote.pairs_compared");
  mh_.remote_reports = metrics->counter("race.remote.reports");
  mh_.tree_up_bytes = metrics->counter("net.barrier.tree.up_bytes");
  mh_.tree_down_bytes = metrics->counter("net.barrier.tree.down_bytes");
  mh_.tree_fragments = metrics->counter("net.barrier.tree.fragments");
  mh_.tree_height = metrics->counter("net.barrier.tree.height");
  mh_.batch_rounds = metrics->counter("race.batch.rounds");
  mh_.batch_epochs = metrics->counter("race.batch.batched_epochs");
  have_metrics_ = true;
}

void BarrierCoordinator::RunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch) {
  if (node_.opts_.barrier_tree) {
    TreeRunBarrier(lk, epoch);
    return;
  }
  if (node_.id_ == 0) {
    const auto all_arrived = [this, epoch] {
      return arrivals_[epoch].size() == static_cast<size_t>(node_.opts_.num_nodes - 1);
    };
    if (!node_.system_->crash_armed()) {
      node_.cv_.wait(lk, all_arrived);
    } else {
      // Watchful wait: a crashed worker never arrives, so park with a
      // timeout and heartbeat-probe the missing members each tick. A probe
      // to a dead node surfaces kPeerUnreachable here and aborts the run.
      while (!all_arrived() && !node_.aborted_) {
        if (node_.cv_.wait_for(lk, kSuspicionInterval,
                               [&] { return all_arrived() || node_.aborted_; })) {
          break;
        }
        ProbeMissingArrivalsLocked(epoch);
      }
      node_.ThrowIfAbortedLocked();
    }
    MasterRunBarrier(lk, epoch);
    return;
  }
  BarrierArriveMsg arrive;
  arrive.epoch = epoch;
  arrive.node = node_.id_;
  arrive.intervals = node_.log_.All();
  arrive.vc = node_.vc_;
  arrive.arrive_time_ns = static_cast<uint64_t>(node_.timing_.now_ns());
  // Publish this epoch's overhead before arriving so the master's snapshot
  // (taken once every arrival is in) sees a consistent cross-node view.
  node_.PublishOverheadLocked();
  node_.Send(0, std::move(arrive));
  const auto released = [this, epoch] {
    return barrier_release_.has_value() && barrier_release_->epoch == epoch;
  };
  if (!node_.system_->crash_armed()) {
    node_.cv_.wait(lk, released);
  } else {
    while (!released() && !node_.aborted_) {
      if (node_.cv_.wait_for(lk, kSuspicionInterval,
                             [&] { return released() || node_.aborted_; })) {
        break;
      }
      // Stuck: ask the master to health-check the epoch (it probes its
      // missing arrivals). If the master itself is the dead node, this send
      // surfaces kPeerUnreachable and initiates the abort right here.
      node_.Send(0, PeerSuspectMsg{epoch, kNoNode});
    }
    node_.ThrowIfAbortedLocked();
  }
  BarrierReleaseMsg release = std::move(*barrier_release_);
  barrier_release_.reset();
  const size_t bytes = PayloadByteSize(Payload(release));
  const size_t rn_bytes = PayloadReadNoticeBytes(Payload(release));
  node_.timing_.ObserveAtLeast(static_cast<double>(release.release_time_ns) +
                               node_.opts_.costs.MessageCost(bytes - rn_bytes));
  if (rn_bytes > 0) {
    node_.timing_.Charge(Bucket::kCvmMods,
                         node_.opts_.costs.per_byte_ns * static_cast<double>(rn_bytes));
  }
  node_.ApplyIntervalRecordsLocked(release.intervals);
  node_.vc_.MergeWith(release.merged_vc);
  node_.GarbageCollectLocked();
}

void BarrierCoordinator::MasterRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch) {
  std::map<NodeId, ArrivalInfo> arrivals = std::move(arrivals_[epoch]);
  arrivals_.erase(epoch);

  for (auto& [node, info] : arrivals) {
    node_.timing_.ObserveAtLeast(
        info.time_ns + node_.opts_.costs.MessageCost(info.wire_bytes - info.read_notice_bytes));
    if (info.read_notice_bytes > 0) {
      node_.timing_.Charge(Bucket::kCvmMods,
                           node_.opts_.costs.per_byte_ns *
                               static_cast<double>(info.read_notice_bytes));
    }
    node_.ApplyIntervalRecordsLocked(info.records);
    node_.vc_.MergeWith(info.vc);
  }

  if (node_.opts_.race_detection && node_.opts_.online_detection) {
    if (node_.opts_.detect_batch > 1) {
      // Batching retains prior epochs' records in the master log (GC below
      // is skipped), so the check-list build must see only this epoch's.
      RunRaceDetection(lk, epoch, CurrentEpochRecords(epoch));
      MaybeFlushDetectBatch(lk, epoch);
    } else {
      RunRaceDetection(lk, epoch, node_.log_.All());
    }
  }

  for (NodeId node = 1; node < node_.opts_.num_nodes; ++node) {
    BarrierReleaseMsg release;
    release.epoch = epoch;
    release.intervals = node_.log_.UnseenBy(arrivals[node].vc);
    release.merged_vc = node_.vc_;
    release.release_time_ns = static_cast<uint64_t>(node_.timing_.now_ns());
    node_.Send(node, std::move(release));
  }
  if (pending_batch_.empty()) {
    node_.GarbageCollectLocked();
  }
  // else: queued epochs still need the log (report provenance) and the
  // workers' retained bitmaps; everything is collected at the flush barrier.
  if constexpr (obs::kObsCompiledIn) {
    if (node_.metrics_ != nullptr) {
      node_.PublishOverheadLocked();
      const int interval = std::max(1, node_.opts_.trace.metrics_interval);
      if ((epoch + 1) % interval == 0) {
        node_.metrics_->SnapshotEpoch(epoch, node_.timing_.now_ns());
      }
    }
  }
}

void BarrierCoordinator::PublishReports(std::vector<RaceReport> reports) {
  for (RaceReport& report : reports) {
    report.addr = static_cast<GlobalAddr>(report.page) * node_.opts_.page_size +
                  static_cast<GlobalAddr>(report.word) * kWordSize;
    report.symbol = node_.system_->segment().Symbolize(report.addr);
    // Provenance must be captured here: the master's merged log still holds
    // every record of the epoch (arrivals applied, release-time GC not yet
    // run), including intervals compared remotely in the distributed mode.
    AttachProvenance(report, node_.log_.Find(report.interval_a),
                     node_.log_.Find(report.interval_b));
    // Numeric args only: the report's strings move into the system-wide
    // report vector, so pointers into them must not outlive this scope.
    node_.TraceInstant("race.report", "race", "addr", report.addr);
  }
  node_.system_->AddReports(std::move(reports));
}

void BarrierCoordinator::RunRaceDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                                          const std::vector<IntervalRecord>& epoch_intervals) {
  RaceDetector& detector = node_.system_->detector();
  const DetectorStats before = detector.stats();
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;
  // Master sim time spent in the check, whatever exit path is taken — the
  // quantity the pipeline ablation compares across modes.
  DetectTimer detect_timer{timing, timing.now_ns(), &pipeline_stats_.detect_ns};
  // The distributed master's build is modeled as detect_shards parallel
  // shards; the serial master is the paper's single scan.
  const int shards_wanted =
      opts.detection_pipeline == DetectionPipeline::kDistributed ? opts.detect_shards : 1;
  std::vector<DetectorStats> per_shard;
  const std::vector<CheckPair>* pairs = nullptr;
  {
    obs::Span overlap_span(node_.tracer_, node_.id_, "detector.overlap", "race", timing, epoch);
    pairs = &detector.BuildCheckListSharded(epoch_intervals, shards_wanted, &per_shard);
    // The parallel critical path: the most loaded shard, plus a fork/join
    // cost per modeled shard. One shard degenerates to the serial charge
    // (sum of every comparison, no fork cost).
    double worst_shard_ns = 0;
    for (const DetectorStats& s : per_shard) {
      worst_shard_ns =
          std::max(worst_shard_ns,
                   opts.costs.interval_cmp_ns * static_cast<double>(s.interval_comparisons) +
                       opts.costs.page_overlap_ns * static_cast<double>(s.page_overlap_probes));
    }
    if (per_shard.size() > 1) {
      worst_shard_ns += opts.costs.shard_fork_ns * static_cast<double>(per_shard.size());
    }
    timing.Charge(Bucket::kIntervals, worst_shard_ns);
    overlap_span.SetArg("pairs", pairs->size());
  }
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      const DetectorStats& after = detector.stats();
      mh_.check_pairs->Add(after.overlapping_pairs - before.overlapping_pairs);
      mh_.shard_count->Add(per_shard.size());
    }
  }
  if (pairs->empty()) {
    return;
  }
  pipeline_stats_.shards_used = std::max<uint64_t>(pipeline_stats_.shards_used, per_shard.size());
  DispatchDetection(lk, epoch, *pairs);
}

std::vector<IntervalRecord> BarrierCoordinator::CurrentEpochRecords(EpochId epoch) const {
  std::vector<IntervalRecord> all = node_.log_.All();
  std::vector<IntervalRecord> out;
  out.reserve(all.size());
  for (IntervalRecord& r : all) {
    if (r.epoch == epoch) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

void BarrierCoordinator::DispatchDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                                           const std::vector<CheckPair>& pairs) {
  ++pipeline_stats_.detect_epochs;
  // The check list fixes the distinct (interval, page) bitmaps step 5 needs;
  // every pipeline mode accounts them once here (§4 step 3).
  std::vector<std::pair<IntervalId, PageId>> needed = RaceDetector::BitmapsNeeded(pairs);
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.checklist_entries->Add(needed.size());
    }
  }
  const DsmOptions& opts = node_.opts_;
  if (opts.detect_batch > 1) {
    // Park this epoch's work; the compare rounds run when the batch window
    // closes. The pairs are copied out of the detector's pooled list, which
    // the next epoch's build will overwrite.
    PendingEpoch pending;
    pending.epoch = epoch;
    pending.pairs = pairs;
    pending.needed = std::move(needed);
    pending_batch_.push_back(std::move(pending));
    return;
  }
  if (opts.detection_pipeline == DetectionPipeline::kDistributed) {
    PublishReports(RunDistributedCompare(lk, epoch, epoch, pairs, needed.size()));
    return;
  }
  const std::vector<EpochCheckView> work{{epoch, &pairs, &needed}};
  CompareEpochsSerial(lk, epoch, work);
}

void BarrierCoordinator::MaybeFlushDetectBatch(std::unique_lock<std::mutex>& lk, EpochId epoch) {
  const DsmOptions& opts = node_.opts_;
  if (opts.detect_batch <= 1 || pending_batch_.empty()) {
    return;
  }
  const bool boundary = (epoch + 1) % opts.detect_batch == 0;
  if (!boundary && !node_.final_barrier_) {
    return;
  }
  NodeTiming& timing = node_.timing_;
  DetectTimer detect_timer{timing, timing.now_ns(), &pipeline_stats_.detect_ns};
  ++pipeline_stats_.batch_rounds;
  pipeline_stats_.batched_epochs += pending_batch_.size();
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.batch_rounds->Add(1);
      mh_.batch_epochs->Add(pending_batch_.size());
    }
  }
  if (opts.detection_pipeline == DetectionPipeline::kDistributed) {
    // One distributed round per queued epoch, oldest first. The messages
    // carry the flush barrier's epoch (constituents reject anything older
    // than their current barrier); only the reports are stamped with the
    // epoch the pairs came from.
    for (const PendingEpoch& pending : pending_batch_) {
      PublishReports(
          RunDistributedCompare(lk, epoch, pending.epoch, pending.pairs, pending.needed.size()));
    }
  } else {
    std::vector<EpochCheckView> work;
    work.reserve(pending_batch_.size());
    for (const PendingEpoch& pending : pending_batch_) {
      work.push_back(EpochCheckView{pending.epoch, &pending.pairs, &pending.needed});
    }
    CompareEpochsSerial(lk, epoch, work);
  }
  pending_batch_.clear();
}

void BarrierCoordinator::CompareEpochsSerial(std::unique_lock<std::mutex>& lk, EpochId msg_epoch,
                                             const std::vector<EpochCheckView>& work) {
  RaceDetector& detector = node_.system_->detector();
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;

  obs::Span bitmaps_span(node_.tracer_, node_.id_, "detector.bitmaps", "race", timing, msg_epoch);

  // Bitmap-retrieval round (§4 step 4): ask each constituent node for the
  // word bitmaps of its listed intervals; the master's own resolve locally.
  // A batched flush runs ONE combined round over every queued epoch's needs
  // (interval indices are globally monotonic, so entries never collide).
  collected_bitmaps_.clear();
  std::map<NodeId, std::vector<CheckEntry>> by_node;
  for (const EpochCheckView& w : work) {
    for (const auto& [interval, page] : *w.needed) {
      if (interval.node == node_.id_) {
        const PageAccessBitmaps* local = node_.bitmaps_.Find(interval.index, page);
        if (local != nullptr) {
          collected_bitmaps_.emplace(std::make_pair(interval, page), *local);
        }
      } else {
        by_node[interval.node].push_back(CheckEntry{interval, page});
      }
    }
  }
  CVM_CHECK_EQ(bitmap_replies_pending_, 0);
  bitmap_replies_pending_ = static_cast<int>(by_node.size());
  bitmap_round_bytes_ = 0;
  bitmap_round_raw_bytes_ = 0;
  for (auto& [node, entries] : by_node) {
    BitmapRequestMsg request;
    request.epoch = msg_epoch;
    request.entries = std::move(entries);
    node_.Send(node, std::move(request));
  }
  if (bitmap_replies_pending_ > 0) {
    timing.Charge(Bucket::kBitmaps, 2 * opts.costs.msg_latency_ns);
    // Detection rounds only involve nodes that arrived at this barrier, so a
    // peer death here is unexpected — the abort predicate is defensive.
    node_.cv_.wait(lk, [this] { return bitmap_replies_pending_ == 0 || node_.aborted_; });
    node_.ThrowIfAbortedLocked();
    timing.Charge(Bucket::kBitmaps,
                  opts.costs.per_byte_ns * static_cast<double>(bitmap_round_bytes_));
  }

  const uint64_t compared_before = detector.stats().bitmap_pairs_compared;
  BitmapLookup lookup = [this](const IntervalId& interval, PageId page) {
    auto it = collected_bitmaps_.find(std::make_pair(interval, page));
    return it == collected_bitmaps_.end() ? nullptr : &it->second;
  };
  std::vector<std::vector<RaceReport>> all_reports;
  all_reports.reserve(work.size());
  size_t total_reports = 0;
  for (const EpochCheckView& w : work) {
    all_reports.push_back(detector.CompareBitmaps(*w.pairs, lookup, w.epoch, w.needed->size()));
    total_reports += all_reports.back().size();
  }
  const uint64_t compared = detector.stats().bitmap_pairs_compared - compared_before;
  const double chunks = static_cast<double>((opts.page_size / kWordSize + 63) / 64);
  timing.Charge(Bucket::kBitmaps,
                opts.costs.bitmap_cmp_word_ns * chunks * static_cast<double>(compared));
  pipeline_stats_.bitmap_bytes_wire += bitmap_round_bytes_;
  pipeline_stats_.bitmap_bytes_raw += bitmap_round_raw_bytes_;

  bitmaps_span.SetArg("compared", compared);
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.bitmap_pairs_compared->Add(compared);
      mh_.races_reported->Add(total_reports);
      mh_.bitmap_bytes_wire->Add(bitmap_round_bytes_);
      mh_.bitmap_bytes_raw->Add(bitmap_round_raw_bytes_);
      mh_.bitmap_bytes_saved->Add(bitmap_round_raw_bytes_ - bitmap_round_bytes_);
    }
  }
  for (std::vector<RaceReport>& reports : all_reports) {
    PublishReports(std::move(reports));
  }
  collected_bitmaps_.clear();
}

std::vector<RaceReport> BarrierCoordinator::RunDistributedCompare(
    std::unique_lock<std::mutex>& lk, EpochId msg_epoch, EpochId report_epoch,
    const std::vector<CheckPair>& pairs, size_t checklist_entries) {
  RaceDetector& detector = node_.system_->detector();
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;
  obs::Span span(node_.tracer_, node_.id_, "detector.compare.remote", "race", timing, msg_epoch);

  // Assign every check pair to one of its two member nodes. The master owns
  // any pair it participates in (its bitmaps never leave node 0); remaining
  // pairs alternate between the members by index so the compare load spreads
  // evenly. Ownership is a pure function of the (deterministic) check list,
  // so the partition is reproducible run to run.
  struct OwnedPair {
    uint32_t index;
    const CheckPair* pair;
  };
  std::vector<OwnedPair> master_pairs;
  std::map<NodeId, CompareRequestMsg> requests;
  std::set<std::tuple<NodeId, NodeId, IntervalId, PageId>> planned;  // (src, dst, interval, page)
  auto plan_ship = [&](NodeId source, NodeId dest, const IntervalId& interval, PageId page) {
    if (source == dest) {
      return;  // The owner already holds its own bitmaps.
    }
    if (!planned.insert({source, dest, interval, page}).second) {
      return;  // Another pair already ships this entry there.
    }
    requests[source].ships.push_back(ShipDirective{dest, interval, page});
  };
  uint32_t index = 0;
  for (const CheckPair& pair : pairs) {
    const NodeId na = pair.a.id.node;
    const NodeId nb = pair.b.id.node;
    const NodeId owner = (na == node_.id_ || nb == node_.id_)
                             ? node_.id_
                             : (index % 2 == 0 ? std::min(na, nb) : std::max(na, nb));
    for (PageId page : pair.pages) {
      if (pair.a.WritesPage(page) || pair.a.ReadsPage(page)) {
        plan_ship(na, owner, pair.a.id, page);
      }
      if (pair.b.WritesPage(page) || pair.b.ReadsPage(page)) {
        plan_ship(nb, owner, pair.b.id, page);
      }
    }
    if (owner == node_.id_) {
      master_pairs.push_back(OwnedPair{index, &pair});
    } else {
      ComparePairEntry entry;
      entry.pair_index = index;
      entry.a = pair.a.id;
      entry.b = pair.b.id;
      entry.pages = pair.pages;
      requests[owner].pairs.push_back(std::move(entry));
    }
    ++index;
  }
  // One BitmapShipMsg travels per distinct (source, dest) edge, so a dest
  // expects as many ship messages as it has distinct sources.
  std::map<NodeId, std::set<NodeId>> ship_sources;
  for (const auto& [src, dst, interval, page] : planned) {
    ship_sources[dst].insert(src);
  }

  CVM_CHECK_EQ(compare_replies_pending_, 0);
  CVM_CHECK_EQ(master_ships_pending_, 0);
  compare_replies_.clear();
  collected_bitmaps_.clear();
  master_ship_target_ns_ = 0;
  master_ship_bytes_wire_ = 0;
  master_ship_bytes_raw_ = 0;
  {
    auto it = ship_sources.find(node_.id_);
    master_ships_pending_ = it == ship_sources.end() ? 0 : static_cast<int>(it->second.size());
  }
  compare_replies_pending_ = static_cast<int>(requests.size());
  const uint64_t request_time = static_cast<uint64_t>(timing.now_ns());
  for (auto& [node, request] : requests) {
    request.epoch = msg_epoch;
    request.request_time_ns = request_time;
    auto it = ship_sources.find(node);
    request.expected_ship_msgs =
        it == ship_sources.end() ? 0 : static_cast<uint32_t>(it->second.size());
    node_.Send(node, std::move(request));
  }

  // The master's own compares need only the peers' shipped bitmaps; its own
  // side resolves from local storage. Compare as soon as the inbound ships
  // land — the remote owners' replies overlap this work (the Lamport merge
  // below takes the max of the two legs, not their sum).
  node_.cv_.wait(lk, [this] { return master_ships_pending_ == 0 || node_.aborted_; });
  node_.ThrowIfAbortedLocked();
  if (master_ship_target_ns_ > timing.now_ns()) {
    timing.Charge(Bucket::kBitmaps, master_ship_target_ns_ - timing.now_ns());
  }
  BitmapLookup lookup = [this](const IntervalId& interval,
                               PageId page) -> const PageAccessBitmaps* {
    if (interval.node == node_.id_) {
      return node_.bitmaps_.Find(interval.index, page);
    }
    auto it = collected_bitmaps_.find(std::make_pair(interval, page));
    return it == collected_bitmaps_.end() ? nullptr : &it->second;
  };
  uint64_t master_compared = 0;
  std::vector<std::pair<uint32_t, RaceReport>> tagged;
  for (const OwnedPair& owned : master_pairs) {
    std::vector<RaceReport> pair_reports =
        RaceDetector::CompareOnePair(owned.pair->a.id, owned.pair->b.id, owned.pair->pages,
                                     lookup, report_epoch, &master_compared);
    for (RaceReport& report : pair_reports) {
      tagged.emplace_back(owned.index, std::move(report));
    }
  }
  const double chunks = static_cast<double>((opts.page_size / kWordSize + 63) / 64);
  timing.Charge(Bucket::kBitmaps,
                opts.costs.bitmap_cmp_word_ns * chunks * static_cast<double>(master_compared));

  node_.cv_.wait(lk, [this] { return compare_replies_pending_ == 0 || node_.aborted_; });
  node_.ThrowIfAbortedLocked();
  // The distributed round's cost is its critical path: the slowest node's
  // reply arrival, not the sum over nodes.
  double target_ns = timing.now_ns();
  uint64_t remote_compared = 0;
  uint64_t remote_report_count = 0;
  uint64_t ship_bytes_wire = master_ship_bytes_wire_;
  uint64_t ship_bytes_raw = master_ship_bytes_raw_;
  for (const CompareReplyInfo& info : compare_replies_) {
    target_ns = std::max(target_ns, static_cast<double>(info.msg.reply_time_ns) +
                                        opts.costs.MessageCost(info.wire_bytes));
    remote_compared += info.msg.pairs_compared;
    remote_report_count += info.msg.reports.size();
    ship_bytes_wire += info.msg.ship_bytes_wire;
    ship_bytes_raw += info.msg.ship_bytes_raw;
    for (const RemoteReportEntry& e : info.msg.reports) {
      RaceReport report;
      report.kind = static_cast<RaceKind>(e.kind);
      report.page = e.page;
      report.word = e.word;
      report.interval_a = e.interval_a;
      report.interval_b = e.interval_b;
      report.epoch = report_epoch;
      tagged.emplace_back(e.pair_index, std::move(report));
    }
  }
  if (target_ns > timing.now_ns()) {
    timing.Charge(Bucket::kBitmaps, target_ns - timing.now_ns());
  }
  compare_replies_.clear();
  collected_bitmaps_.clear();

  // Deterministic merge: check-list order is pair_index order, and each
  // node (master included) emitted its reports in pair order via
  // CompareOnePair, so a stable sort reproduces the serial report stream.
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<RaceReport> reports;
  reports.reserve(tagged.size());
  for (auto& [pair_index, report] : tagged) {
    reports.push_back(std::move(report));
  }

  detector.AccumulateCompare(checklist_entries, master_compared + remote_compared);
  pipeline_stats_.bitmap_bytes_wire += ship_bytes_wire;
  pipeline_stats_.bitmap_bytes_raw += ship_bytes_raw;
  pipeline_stats_.remote_pairs_compared += remote_compared;
  pipeline_stats_.remote_reports += remote_report_count;
  span.SetArg("remote_pairs", remote_compared);
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.bitmap_pairs_compared->Add(master_compared + remote_compared);
      mh_.races_reported->Add(reports.size());
      mh_.bitmap_bytes_wire->Add(ship_bytes_wire);
      mh_.bitmap_bytes_raw->Add(ship_bytes_raw);
      mh_.bitmap_bytes_saved->Add(ship_bytes_raw - ship_bytes_wire);
      mh_.remote_pairs->Add(remote_compared);
      mh_.remote_reports->Add(remote_report_count);
    }
  }
  return reports;
}

void BarrierCoordinator::ProbeMissingArrivalsLocked(EpochId epoch) {
  if (node_.id_ != 0 || epoch != node_.epoch_ || node_.aborted_ || node_.crashed_) {
    return;
  }
  const auto& arrived = arrivals_[epoch];
  for (NodeId n = 1; n < node_.opts_.num_nodes; ++n) {
    if (arrived.find(n) == arrived.end()) {
      node_.Send(n, HeartbeatProbeMsg{epoch, ++probe_token_});
      if (node_.aborted_) {
        return;  // The probe surfaced a dead peer; nothing left to check.
      }
    }
  }
}

void BarrierCoordinator::TreeRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch) {
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;
  const int fanout = opts.barrier_fanout;
  const std::vector<NodeId> children = TreeChildren(node_.id_, fanout, opts.num_nodes);
  const bool detecting = opts.race_detection && opts.online_detection;

  // Combine phase: wait for every child subtree's arrival.
  if (!children.empty()) {
    const auto kids_arrived = [this, epoch, &children] {
      return tree_arrivals_[epoch].size() == children.size();
    };
    if (!node_.system_->crash_armed()) {
      node_.cv_.wait(lk, kids_arrived);
    } else {
      // Watchful wait, per tree edge: probe the children still missing. A
      // dead child surfaces kPeerUnreachable right here; a death elsewhere
      // is caught the same way by the dead node's own parent, whose abort
      // broadcast unblocks this wait too.
      while (!kids_arrived() && !node_.aborted_) {
        if (node_.cv_.wait_for(lk, kSuspicionInterval,
                               [&] { return kids_arrived() || node_.aborted_; })) {
          break;
        }
        const auto& arrived = tree_arrivals_[epoch];
        for (NodeId child : children) {
          if (arrived.find(child) == arrived.end()) {
            node_.Send(child, HeartbeatProbeMsg{epoch, ++probe_token_});
            if (node_.aborted_) {
              break;
            }
          }
        }
      }
      node_.ThrowIfAbortedLocked();
    }
  }
  std::map<NodeId, TreeArrival> arrivals = std::move(tree_arrivals_[epoch]);
  tree_arrivals_.erase(epoch);

  // Fold each child subtree into this node: log records, max/min clocks,
  // page interest, and the check-list fragments claimed further down.
  VectorClock min_vc = node_.vc_;
  const int num_pages = node_.pages_.num_pages();
  Bitmap interest(static_cast<uint32_t>(num_pages));
  for (PageId page = 0; page < num_pages; ++page) {
    // Interested in any page this node ever cached: a usable copy or a
    // retained stale one (data survives invalidation).
    //
    // Pages this node is HOME for are always interesting, cached or not:
    // this bitmap is a snapshot taken at barrier arrival, but the service
    // thread keeps serving page requests from stragglers during the
    // barrier, and the home is where a never-touched page can be lazily
    // materialized to serve such a fetch. Under single-writer, granting
    // ownership away retains a stale-able read copy — one the shipped
    // snapshot does not cover, so without the home clause its
    // invalidation gets filtered and the next epoch reads stale data.
    // Every other mid-barrier state change happens on pages the node
    // already held data for (fetching requires the app thread, which is
    // parked in the barrier). Homes are 1/n of the address space per
    // node, so the clause keeps the down-leg sub-quadratic. The mapping
    // mirrors CoherenceProtocol::HomeOf (page % num_nodes).
    //
    // Find() never creates an entry, so the scan leaves the page table
    // holding only the pages this node touched.
    const PageEntry* entry = node_.pages_.Find(page);
    const bool is_home = (page % node_.opts_.num_nodes) == node_.id_;
    if (is_home ||
        (entry != nullptr && (entry->state != PageState::kInvalid || !entry->data.empty()))) {
      interest.Set(static_cast<uint32_t>(page));
    }
  }
  std::vector<TreeFragmentPair> fragments;
  tree_child_state_.clear();
  for (auto& [child, info] : arrivals) {
    timing.ObserveAtLeast(static_cast<double>(info.msg.arrive_time_ns) +
                          opts.costs.MessageCost(info.wire_bytes - info.read_notice_bytes));
    if (info.read_notice_bytes > 0) {
      timing.Charge(Bucket::kCvmMods,
                    opts.costs.per_byte_ns * static_cast<double>(info.read_notice_bytes));
    }
    // Tree-hop cost: merging one child's combined log into this node's.
    timing.Charge(Bucket::kNone, opts.costs.tree_merge_ns);
    node_.ApplyIntervalRecordsLocked(info.msg.intervals);
    node_.vc_.MergeWith(info.msg.vc);
    for (int n = 0; n < min_vc.size(); ++n) {
      min_vc.Set(n, std::min(min_vc.At(n), info.msg.min_vc.At(n)));
    }
    TreeChildState state;
    state.min_vc = std::move(info.msg.min_vc);
    state.interest = Bitmap(static_cast<uint32_t>(num_pages));
    for (PageId page : info.msg.interest) {
      state.interest.Set(static_cast<uint32_t>(page));
      interest.Set(static_cast<uint32_t>(page));
    }
    for (TreeFragmentPair& fragment : info.msg.fragments) {
      fragments.push_back(std::move(fragment));
    }
    tree_child_state_.emplace(child, std::move(state));
  }

  // Claim the check pairs whose members' LCA is this node: both records
  // first co-locate here, so this is the unique tree node allowed to emit
  // them (no pair is claimed twice, none is missed).
  DetectorStats claim_stats;
  std::vector<CheckPair> claimed;
  size_t epoch_record_count = 0;
  if (detecting) {
    const double claim_start_ns = timing.now_ns();
    const std::vector<IntervalRecord> epoch_records = CurrentEpochRecords(epoch);
    epoch_record_count = epoch_records.size();
    uint64_t index_entries = 0;
    obs::Span span(node_.tracer_, node_.id_, "detector.tree.claim", "race", timing, epoch);
    RaceDetector::BuildClaimedPairs(
        epoch_records, opts.overlap_method, num_pages,
        [this, fanout](NodeId a, NodeId b) { return TreeLca(a, b, fanout) == node_.id_; },
        &tree_scratch_, &claimed, &claim_stats, &index_entries);
    timing.Charge(Bucket::kIntervals,
                  opts.costs.interval_cmp_ns * static_cast<double>(claim_stats.interval_comparisons) +
                      opts.costs.page_overlap_ns * static_cast<double>(claim_stats.page_overlap_probes) +
                      opts.costs.page_index_ns * static_cast<double>(index_entries));
    span.SetArg("pairs", claimed.size());
    if (node_.id_ == 0) {
      // The root's claim build is part of the master detect path (the flat
      // master's build is timed inside RunRaceDetection); interior nodes'
      // builds run off the master clock and are deliberately not folded.
      pipeline_stats_.detect_ns += timing.now_ns() - claim_start_ns;
    }
  }

  if (node_.id_ == 0) {
    if constexpr (obs::kObsCompiledIn) {
      if (have_metrics_ && epoch == 0) {
        mh_.tree_height->Add(static_cast<uint64_t>(TreeHeightOf(opts.num_nodes, fanout)));
      }
    }
    if (detecting) {
      {
        DetectTimer detect_timer{timing, timing.now_ns(), &pipeline_stats_.detect_ns};
        // Rehydrate the subtree fragments from the merged log (every record
        // reaches the root) and interleave the root's own claims; (a.id, b.id)
        // order is exactly the flat serial scan's emission order, so the
        // merged check list — and with it every downstream report — is
        // byte-identical to the flat pipeline's.
        std::vector<CheckPair> pairs = std::move(claimed);
        pairs.reserve(pairs.size() + fragments.size());
        for (const TreeFragmentPair& fragment : fragments) {
          const IntervalRecord* a = node_.log_.Find(fragment.a);
          const IntervalRecord* b = node_.log_.Find(fragment.b);
          CVM_CHECK(a != nullptr) << "fragment interval missing from the merged log";
          CVM_CHECK(b != nullptr) << "fragment interval missing from the merged log";
          pairs.push_back(CheckPair{*a, *b, fragment.pages});
        }
        std::sort(pairs.begin(), pairs.end(), [](const CheckPair& x, const CheckPair& y) {
          return x.a.id == y.a.id ? x.b.id < y.b.id : x.a.id < y.a.id;
        });
        // Claims see pairs, not the whole epoch: the interval counters come
        // from the merged list, exactly as the flat build computes them.
        std::set<IntervalId> in_overlap;
        for (const CheckPair& pair : pairs) {
          in_overlap.insert(pair.a.id);
          in_overlap.insert(pair.b.id);
        }
        claim_stats.intervals_total = epoch_record_count;
        claim_stats.intervals_in_overlap = in_overlap.size();
        node_.system_->detector().AccumulateBuild(claim_stats);
        if constexpr (obs::kObsCompiledIn) {
          if (have_metrics_) {
            mh_.check_pairs->Add(pairs.size());
          }
        }
        if (!pairs.empty()) {
          DispatchDetection(lk, epoch, pairs);
        }
      }
      // Outside the timer: the flush charges its own detect_ns.
      MaybeFlushDetectBatch(lk, epoch);
    }
    SendTreeReleasesLocked(epoch, children);
    if (pending_batch_.empty()) {
      node_.GarbageCollectLocked();
    }
    if constexpr (obs::kObsCompiledIn) {
      if (node_.metrics_ != nullptr) {
        node_.PublishOverheadLocked();
        const int interval = std::max(1, node_.opts_.trace.metrics_interval);
        if ((epoch + 1) % interval == 0) {
          node_.metrics_->SnapshotEpoch(epoch, node_.timing_.now_ns());
        }
      }
    }
    return;
  }

  // Interior/leaf: forward the combined arrival one hop up.
  BarrierTreeArriveMsg up;
  up.epoch = epoch;
  up.node = node_.id_;
  up.intervals = node_.log_.All();
  up.vc = node_.vc_;
  up.min_vc = std::move(min_vc);
  up.fragments = std::move(fragments);
  if (detecting) {
    up.fragments.reserve(up.fragments.size() + claimed.size());
    for (CheckPair& pair : claimed) {
      up.fragments.push_back(TreeFragmentPair{pair.a.id, pair.b.id, std::move(pair.pages)});
    }
  }
  for (uint32_t bit : interest.SetBits()) {
    up.interest.push_back(static_cast<PageId>(bit));
  }
  up.arrive_time_ns = static_cast<uint64_t>(timing.now_ns());
  // Publish this epoch's overhead before arriving so the root's snapshot
  // (taken once the whole tree has combined) sees a consistent view.
  node_.PublishOverheadLocked();
  const NodeId parent = TreeParent(node_.id_, fanout);
  node_.Send(parent, std::move(up));

  // Release phase: wait for the parent's tailored release.
  const auto released = [this, epoch] {
    return tree_release_.has_value() && tree_release_->msg.epoch == epoch;
  };
  if (!node_.system_->crash_armed()) {
    node_.cv_.wait(lk, released);
  } else {
    while (!released() && !node_.aborted_) {
      if (node_.cv_.wait_for(lk, kSuspicionInterval,
                             [&] { return released() || node_.aborted_; })) {
        break;
      }
      // Probe the parent directly; a dead parent surfaces kPeerUnreachable
      // here and initiates the abort.
      node_.Send(parent, HeartbeatProbeMsg{epoch, ++probe_token_});
    }
    node_.ThrowIfAbortedLocked();
  }
  TreeRelease release = std::move(*tree_release_);
  tree_release_.reset();
  timing.ObserveAtLeast(static_cast<double>(release.msg.release_time_ns) +
                        opts.costs.MessageCost(release.wire_bytes - release.read_notice_bytes));
  if (release.read_notice_bytes > 0) {
    timing.Charge(Bucket::kCvmMods,
                  opts.costs.per_byte_ns * static_cast<double>(release.read_notice_bytes));
  }
  node_.ApplyIntervalRecordsLocked(release.msg.intervals);
  node_.vc_.MergeWith(release.msg.merged_vc);
  // Re-tailor and forward down before collecting: the forwarding reads this
  // node's log, and a child's interest is a subset of this subtree's, so
  // every record a child needs is guaranteed to be here.
  SendTreeReleasesLocked(epoch, children);
  node_.GarbageCollectLocked();
}

void BarrierCoordinator::SendTreeReleasesLocked(EpochId epoch,
                                                const std::vector<NodeId>& children) {
  for (NodeId child : children) {
    auto it = tree_child_state_.find(child);
    CVM_CHECK(it != tree_child_state_.end());
    const TreeChildState& state = it->second;
    BarrierTreeReleaseMsg release;
    release.epoch = epoch;
    release.merged_vc = node_.vc_;
    // Interest filtering is what keeps the release wave sub-quadratic: a
    // record whose write notices miss every valid copy in the child subtree
    // would be applied as a pure no-op there (invalidating an invalid page)
    // and then garbage-collected immediately — so it never travels. The
    // no-op claim leans on the interest fold including each node's home
    // pages (see TreeRunBarrier): copies materialized mid-barrier to serve
    // stragglers appear only at homes, so they are covered despite
    // postdating the snapshot. Read notices are stripped for the same
    // reason records are: below the root they only feed the (already
    // finished) race check.
    for (IntervalRecord& record : node_.log_.UnseenBy(state.min_vc)) {
      bool relevant = false;
      for (PageId page : record.write_pages) {
        if (state.interest.Test(static_cast<uint32_t>(page))) {
          relevant = true;
          break;
        }
      }
      if (!relevant) {
        continue;
      }
      record.read_pages.clear();
      release.intervals.push_back(std::move(record));
    }
    release.release_time_ns = static_cast<uint64_t>(node_.timing_.now_ns());
    node_.Send(child, std::move(release));
  }
  tree_child_state_.clear();
}

void BarrierCoordinator::OnTreeArrive(const Message& msg) {
  const auto& arrive = std::get<BarrierTreeArriveMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  if (arrive.epoch < node_.epoch_) {
    return;  // This epoch's combine already ran here: stale re-delivery.
  }
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.tree_up_bytes->Add(msg.wire_bytes);
      mh_.tree_fragments->Add(arrive.fragments.size());
    }
  }
  TreeArrival info;
  info.msg = arrive;
  info.wire_bytes = msg.wire_bytes;
  info.read_notice_bytes = PayloadReadNoticeBytes(msg.payload);
  tree_arrivals_[arrive.epoch][arrive.node] = std::move(info);
  node_.cv_.notify_all();
}

void BarrierCoordinator::OnTreeRelease(const Message& msg) {
  const auto& release = std::get<BarrierTreeReleaseMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  if (tree_release_.has_value() || release.epoch < node_.epoch_) {
    return;  // This epoch's release already landed: stale re-delivery.
  }
  if constexpr (obs::kObsCompiledIn) {
    if (have_metrics_) {
      mh_.tree_down_bytes->Add(msg.wire_bytes);
    }
  }
  TreeRelease info;
  info.msg = release;
  info.wire_bytes = msg.wire_bytes;
  info.read_notice_bytes = PayloadReadNoticeBytes(msg.payload);
  tree_release_ = std::move(info);
  node_.cv_.notify_all();
}

void BarrierCoordinator::OnBarrierArrive(const Message& msg) {
  const auto& arrive = std::get<BarrierArriveMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  CVM_CHECK_EQ(node_.id_, 0);
  if (arrive.epoch < node_.epoch_) {
    return;  // The master already ran this epoch's barrier: stale re-delivery.
  }
  ArrivalInfo info;
  info.records = arrive.intervals;
  info.vc = arrive.vc;
  info.time_ns = static_cast<double>(arrive.arrive_time_ns);
  info.wire_bytes = msg.wire_bytes;
  info.read_notice_bytes = PayloadReadNoticeBytes(msg.payload);
  arrivals_[arrive.epoch][arrive.node] = std::move(info);
  node_.cv_.notify_all();
}

void BarrierCoordinator::OnBarrierRelease(const Message& msg) {
  const auto& release = std::get<BarrierReleaseMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  if (barrier_release_.has_value() || release.epoch < node_.epoch_) {
    return;  // This epoch's release already landed: stale re-delivery.
  }
  barrier_release_ = release;
  node_.cv_.notify_all();
}

void BarrierCoordinator::OnBitmapRequest(const Message& msg) {
  const auto& request = std::get<BitmapRequestMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  std::vector<BitmapReplyEntry> entries;
  for (const CheckEntry& entry : request.entries) {
    CVM_CHECK_EQ(entry.interval.node, node_.id_);
    const PageAccessBitmaps* bitmaps = node_.bitmaps_.Find(entry.interval.index, entry.page);
    if (bitmaps == nullptr) {
      continue;
    }
    const bool compress = node_.opts_.compress_bitmaps;
    entries.push_back(BitmapReplyEntry{entry.interval, entry.page,
                                       BitmapCodec::Encode(bitmaps->read, compress),
                                       BitmapCodec::Encode(bitmaps->write, compress)});
  }
  BitmapReplyMsg reply;
  reply.epoch = request.epoch;
  reply.entries = std::move(entries);  // Wrapped once; shared from here on.
  node_.Send(msg.from, std::move(reply));
}

void BarrierCoordinator::OnBitmapReply(const Message& msg) {
  const auto& reply = std::get<BitmapReplyMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  size_t wire_entry_bytes = 0;
  size_t raw_entry_bytes = 0;
  for (const BitmapReplyEntry& entry : *reply.entries) {
    wire_entry_bytes += ReplyEntryWireBytes(entry);
    raw_entry_bytes += ReplyEntryRawBytes(entry);
    collected_bitmaps_.emplace(
        std::make_pair(entry.interval, entry.page),
        PageAccessBitmaps{BitmapCodec::Decode(entry.read), BitmapCodec::Decode(entry.write)});
  }
  bitmap_round_bytes_ += msg.wire_bytes;
  bitmap_round_raw_bytes_ += msg.wire_bytes + (raw_entry_bytes - wire_entry_bytes);
  CVM_CHECK_GT(bitmap_replies_pending_, 0);
  --bitmap_replies_pending_;
  if (bitmap_replies_pending_ == 0) {
    node_.cv_.notify_all();
  }
}

void BarrierCoordinator::OnCompareRequest(const Message& msg) {
  const auto& request = std::get<CompareRequestMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  if (request.epoch < node_.epoch_) {
    return;  // Stale re-delivery of a finished round.
  }
  // Drop leftover state from rounds that already completed.
  remote_compare_.erase(remote_compare_.begin(), remote_compare_.lower_bound(node_.epoch_));
  RemoteCompareState& state = remote_compare_[request.epoch];
  if (state.have_request) {
    return;  // Duplicate.
  }
  state.have_request = true;
  node_.timing_.ObserveAtLeast(static_cast<double>(request.request_time_ns) +
                               node_.opts_.costs.MessageCost(msg.wire_bytes));

  // Execute the ship directives immediately: one BitmapShipMsg per distinct
  // destination, sent even when every listed bitmap is gone, so destinations
  // can count messages rather than entries.
  std::map<NodeId, std::vector<BitmapReplyEntry>> by_dest;
  for (const ShipDirective& ship : request.ships) {
    CVM_CHECK_EQ(ship.interval.node, node_.id_);
    std::vector<BitmapReplyEntry>& entries = by_dest[ship.dest];
    const PageAccessBitmaps* bitmaps = node_.bitmaps_.Find(ship.interval.index, ship.page);
    if (bitmaps == nullptr) {
      continue;
    }
    const bool compress = node_.opts_.compress_bitmaps;
    entries.push_back(BitmapReplyEntry{ship.interval, ship.page,
                                       BitmapCodec::Encode(bitmaps->read, compress),
                                       BitmapCodec::Encode(bitmaps->write, compress)});
  }
  for (auto& [dest, entries] : by_dest) {
    for (const BitmapReplyEntry& entry : entries) {
      state.ship_bytes_wire += ReplyEntryWireBytes(entry);
      state.ship_bytes_raw += ReplyEntryRawBytes(entry);
    }
    BitmapShipMsg out;
    out.epoch = request.epoch;
    out.entries = std::move(entries);
    out.send_time_ns = static_cast<uint64_t>(node_.timing_.now_ns());
    node_.Send(dest, std::move(out));
  }
  state.request = request;
  TryFinishRemoteCompare(request.epoch);
}

void BarrierCoordinator::OnBitmapShip(const Message& msg) {
  const auto& ship = std::get<BitmapShipMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  if (node_.id_ == 0) {
    // Master side: peers shipping the bitmaps for master-owned pairs.
    if (master_ships_pending_ <= 0 || ship.epoch != node_.epoch_) {
      return;  // Stale re-delivery.
    }
    for (const BitmapReplyEntry& entry : *ship.entries) {
      master_ship_bytes_wire_ += ReplyEntryWireBytes(entry);
      master_ship_bytes_raw_ += ReplyEntryRawBytes(entry);
      collected_bitmaps_.emplace(
          std::make_pair(entry.interval, entry.page),
          PageAccessBitmaps{BitmapCodec::Decode(entry.read), BitmapCodec::Decode(entry.write)});
    }
    master_ship_target_ns_ =
        std::max(master_ship_target_ns_, static_cast<double>(ship.send_time_ns) +
                                             node_.opts_.costs.MessageCost(msg.wire_bytes));
    --master_ships_pending_;
    if (master_ships_pending_ == 0) {
      node_.cv_.notify_all();
    }
    return;
  }
  if (ship.epoch < node_.epoch_) {
    return;  // Stale re-delivery.
  }
  // Ships can land before this node's own CompareRequest; park them.
  RemoteCompareState& state = remote_compare_[ship.epoch];
  node_.timing_.ObserveAtLeast(static_cast<double>(ship.send_time_ns) +
                               node_.opts_.costs.MessageCost(msg.wire_bytes));
  for (const BitmapReplyEntry& entry : *ship.entries) {
    state.shipped.emplace(
        std::make_pair(entry.interval, entry.page),
        PageAccessBitmaps{BitmapCodec::Decode(entry.read), BitmapCodec::Decode(entry.write)});
  }
  ++state.ships_received;
  TryFinishRemoteCompare(ship.epoch);
}

void BarrierCoordinator::TryFinishRemoteCompare(EpochId epoch) {
  auto it = remote_compare_.find(epoch);
  if (it == remote_compare_.end()) {
    return;
  }
  RemoteCompareState& state = it->second;
  if (!state.have_request || state.ships_received < state.request.expected_ship_msgs) {
    return;
  }
  obs::Span span(node_.tracer_, node_.id_, "detector.compare.remote", "race", node_.timing_,
                 epoch);

  BitmapLookup lookup = [this, &state](const IntervalId& interval,
                                       PageId page) -> const PageAccessBitmaps* {
    if (interval.node == node_.id_) {
      return node_.bitmaps_.Find(interval.index, page);
    }
    auto sit = state.shipped.find(std::make_pair(interval, page));
    return sit == state.shipped.end() ? nullptr : &sit->second;
  };
  CompareReplyMsg reply;
  reply.epoch = epoch;
  reply.node = node_.id_;
  uint64_t compared = 0;
  for (const ComparePairEntry& pair : state.request.pairs) {
    std::vector<RaceReport> reports =
        RaceDetector::CompareOnePair(pair.a, pair.b, pair.pages, lookup, epoch, &compared);
    for (const RaceReport& report : reports) {
      reply.reports.push_back(RemoteReportEntry{pair.pair_index,
                                                static_cast<uint8_t>(report.kind), report.page,
                                                report.word, report.interval_a,
                                                report.interval_b});
    }
  }
  const double chunks = static_cast<double>((node_.opts_.page_size / kWordSize + 63) / 64);
  node_.timing_.Charge(Bucket::kBitmaps, node_.opts_.costs.bitmap_cmp_word_ns * chunks *
                                             static_cast<double>(compared));
  span.SetArg("pairs", compared);
  reply.pairs_compared = compared;
  reply.ship_bytes_wire = state.ship_bytes_wire;
  reply.ship_bytes_raw = state.ship_bytes_raw;
  reply.reply_time_ns = static_cast<uint64_t>(node_.timing_.now_ns());
  remote_compare_.erase(it);
  node_.Send(0, std::move(reply));
}

void BarrierCoordinator::OnCompareReply(const Message& msg) {
  const auto& reply = std::get<CompareReplyMsg>(msg.payload);
  std::lock_guard<std::mutex> guard(node_.mu_);
  CVM_CHECK_EQ(node_.id_, 0);
  if (compare_replies_pending_ <= 0 || reply.epoch != node_.epoch_) {
    return;  // Stale re-delivery.
  }
  compare_replies_.push_back(CompareReplyInfo{reply, msg.wire_bytes});
  --compare_replies_pending_;
  if (compare_replies_pending_ == 0) {
    node_.cv_.notify_all();
  }
}

}  // namespace cvm
