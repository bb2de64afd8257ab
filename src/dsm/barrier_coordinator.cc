#include "src/dsm/barrier_coordinator.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/dsm/dsm.h"
#include "src/dsm/node.h"
#include "src/obs/span.h"
#include "src/race/bitmap_codec.h"

namespace cvm {

namespace {

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

// The flat barrier's wire kinds carry the one-level tree's messages without
// the combine fields. A flat arrival is a leaf's combined arrival: the
// leaf's subtree is the sender alone, so its min clock is its clock.
BarrierArriveMsg ToFlat(BarrierTreeArriveMsg&& m) {
  return {m.epoch, m.node, std::move(m.intervals), std::move(m.vc), m.arrive_time_ps};
}
BarrierReleaseMsg ToFlat(BarrierTreeReleaseMsg&& m) {
  return {m.epoch, std::move(m.intervals), std::move(m.merged_vc), m.release_time_ps};
}
BarrierTreeArriveMsg FromFlat(BarrierArriveMsg&& m) {
  return {m.epoch, m.node, std::move(m.intervals), m.vc, m.vc, {}, {}, m.arrive_time_ps};
}
BarrierTreeReleaseMsg FromFlat(BarrierReleaseMsg&& m) {
  return {m.epoch, std::move(m.intervals), std::move(m.merged_vc), m.release_time_ps};
}

// Accumulates master sim time spent inside a detection scope into
// PipelineStats::detect_ps, whatever exit path is taken.
struct DetectTimer {
  const NodeTiming& timing;
  int64_t start_ps;
  int64_t* out;
  ~DetectTimer() { *out += timing.now_ps() - start_ps; }
};

}  // namespace

BarrierCoordinator::BarrierCoordinator(Node& node) : node_(node) {}

void BarrierCoordinator::RegisterHandlers(MessageDispatcher& dispatcher) {
  dispatcher.Register<BarrierArriveMsg>([this](Message& msg) { OnArrive(msg); });
  dispatcher.Register<BarrierTreeArriveMsg>([this](Message& msg) { OnArrive(msg); });
  dispatcher.Register<BarrierReleaseMsg>([this](Message& msg) { OnRelease(msg); });
  dispatcher.Register<BarrierTreeReleaseMsg>([this](Message& msg) { OnRelease(msg); });
  dispatcher.Register<BitmapRequestMsg>([this](const Message& msg) { OnBitmapRequest(msg); });
  dispatcher.Register<BitmapReplyMsg>([this](const Message& msg) { OnBitmapReply(msg); });
  dispatcher.Register<CompareRequestMsg>([this](Message& msg) { OnCompareRequest(msg); });
  dispatcher.Register<BitmapShipMsg>([this](Message& msg) { OnBitmapShip(msg); });
  dispatcher.Register<CompareReplyMsg>([this](Message& msg) { OnCompareReply(msg); });
}

void BarrierCoordinator::InitObservability(obs::MetricsRegistry* metrics) {
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

void BarrierCoordinator::RunBarrier(EpochId epoch) {
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;
  // The flat barrier is the one-level tree: node 0 is every other node's
  // parent. Only a combine tree pre-reduces on the way up (merge charges,
  // clock minima, page interest, claimed check pairs) and filters releases.
  const bool combine = opts.barrier_tree;
  const int fanout = combine ? opts.barrier_fanout : opts.num_nodes - 1;
  const bool root = node_.id_ == 0;
  const std::vector<NodeId> children = TreeChildren(node_.id_, fanout, opts.num_nodes);

  // Wait for every child's arrival, probing the missing ones: a dead child
  // surfaces kPeerUnreachable right here; a death elsewhere is caught the
  // same way by the dead node's own parent, whose abort broadcast unblocks
  // this wait too.
  if (!children.empty()) {
    node_.AwaitWatchful(
        [this, epoch, &children] { return arrivals_[epoch].size() == children.size(); },
        [this, epoch, &children] {
          for (NodeId child : children) {
            if (!arrivals_[epoch].contains(child)) {
              node_.Send(child, HeartbeatProbeMsg{epoch, ++probe_token_});
              if (node_.aborted_) {
                return;  // The probe surfaced a dead child; nothing left to check.
              }
            }
          }
        });
  }
  std::map<NodeId, Inbound<BarrierTreeArriveMsg>> arrivals = std::move(arrivals_[epoch]);
  arrivals_.erase(epoch);

  // Fold each child into this node: log records and clock, and in a combine
  // tree the subtree's min clock, page interest and the check-list fragments
  // claimed further down.
  VectorClock min_vc = node_.vc_;
  const int num_pages = node_.pages_.num_pages();
  Bitmap interest = combine ? OwnInterest() : Bitmap();
  std::vector<TreeFragmentPair> fragments;
  for (auto& [child, info] : arrivals) {
    Receive(info, info.msg.arrive_time_ps);
    if (combine) {
      // Tree-hop cost: merging one child's combined log into this node's.
      timing.Charge(Bucket::kNone, opts.costs.tree_merge_ns);
    }
    node_.ApplyIntervalRecords(info.msg.intervals);
    node_.vc_.MergeWith(info.msg.vc);
    if (!combine) {
      continue;
    }
    for (int n = 0; n < min_vc.size(); ++n) {
      min_vc.Set(n, std::min(min_vc.At(n), info.msg.min_vc.At(n)));
    }
    for (PageId page : info.msg.interest) {
      interest.Set(static_cast<uint32_t>(page));
    }
    for (TreeFragmentPair& fragment : info.msg.fragments) {
      fragments.push_back(std::move(fragment));
    }
  }

  // Claim the check pairs whose members' LCA is this node: both records
  // first co-locate here, so this is the unique tree node allowed to emit
  // them (no pair is claimed twice, none is missed). The flat root instead
  // runs the paper's all-pairs scan below.
  DetectorStats claim_stats;
  std::vector<CheckPair> claimed;
  if (combine && opts.race_detection) {
    const int64_t claim_start_ps = timing.now_ps();
    // This epoch's records only: queued epochs' records stay in the log
    // until their flush, and the subtrees' records merged in above.
    const std::vector<IntervalRecord> epoch_records = node_.log_.OfEpoch(epoch);
    uint64_t index_entries = 0;
    obs::Span span(node_.tracer_, node_.id_, "detector.tree.claim", "race", timing, epoch);
    RaceDetector::BuildClaimedPairs(
        epoch_records, OverlapMethod::kPageLists, num_pages,
        [this, fanout](NodeId a, NodeId b) { return TreeLca(a, b, fanout) == node_.id_; },
        &tree_scratch_, &claimed, &claim_stats, &index_entries);
    timing.Charge(Bucket::kIntervals,
                  opts.costs.interval_cmp_ns * static_cast<double>(claim_stats.interval_comparisons) +
                      opts.costs.page_overlap_ns * static_cast<double>(claim_stats.page_overlap_probes) +
                      opts.costs.page_index_ns * static_cast<double>(index_entries));
    span.SetArg("pairs", claimed.size());
    claim_stats.intervals_total = epoch_records.size();
    if (root) {
      // The root's claim build is part of the master detect path (the flat
      // master's build is timed inside RunRaceDetection); interior nodes'
      // builds run off the master clock and are deliberately not folded.
      pipeline_stats_.detect_ps += timing.now_ps() - claim_start_ps;
    }
  }

  if (root) {
    if (combine && have_metrics_ && epoch == 0) {
      mh_.tree_height->Add(static_cast<uint64_t>(TreeHeightOf(opts.num_nodes, fanout)));
    }
    if (opts.race_detection) {
      if (combine) {
        QueueTreeCheckList(epoch, std::move(claimed), fragments, claim_stats);
      } else {
        // This epoch's records only: queued epochs' records stay in the log
        // until their flush.
        RunRaceDetection(epoch, node_.log_.OfEpoch(epoch));
      }
      // Outside the build timer: the flush charges its own detect_ps.
      FlushDetection(epoch);
    }
    // The snapshot precedes the releases, because a node enters its next
    // barrier only after its release, so row e counts exactly the entries
    // of barrier e. The final barrier has no next entry; its snapshot
    // follows the releases so the last row holds every message.
    if (!node_.final_barrier_) {
      SnapshotMetrics(epoch);
    }
  } else {
    // Arrive at the parent with this node's log and clock, plus (combine)
    // the subtree's min clock, claimed fragments and page interest.
    BarrierTreeArriveMsg up;
    up.epoch = epoch;
    up.node = node_.id_;
    up.intervals = node_.log_.All();
    up.vc = node_.vc_;
    if (combine) {
      up.min_vc = std::move(min_vc);
      up.fragments = std::move(fragments);
      up.fragments.reserve(up.fragments.size() + claimed.size());
      for (CheckPair& pair : claimed) {
        up.fragments.push_back(TreeFragmentPair{pair.a.id, pair.b.id, std::move(pair.pages)});
      }
      for (uint32_t bit : interest.SetBits()) {
        up.interest.push_back(static_cast<PageId>(bit));
      }
    }
    up.arrive_time_ps = timing.now_ps();
    // Publish this epoch's overhead before arriving so the root's snapshot
    // (taken once every arrival is in) sees a consistent cross-node view.
    node_.PublishOverhead();
    const NodeId parent = TreeParent(node_.id_, fanout);
    if (combine) {
      node_.Send(parent, std::move(up));
    } else {
      node_.Send(parent, ToFlat(std::move(up)));
    }

    // Wait for the parent's release, probing the parent: a dead parent
    // surfaces kPeerUnreachable here and initiates the abort.
    node_.AwaitWatchful(
        [this, epoch] { return release_.has_value() && release_->msg.epoch == epoch; },
        [this, epoch, parent] { node_.Send(parent, HeartbeatProbeMsg{epoch, ++probe_token_}); });
    const Inbound<BarrierTreeReleaseMsg> release = std::move(*release_);
    release_.reset();
    Receive(release, release.msg.release_time_ps);
    node_.ApplyIntervalRecords(release.msg.intervals);
    node_.vc_.MergeWith(release.msg.merged_vc);
  }

  // Release the children. Below the root this re-tailors and forwards the
  // parent's release before collecting: the forwarding reads this node's
  // log, and a child's interest is a subset of this subtree's, so every
  // record a child needs is guaranteed to be here.
  SendReleases(epoch, arrivals);
  // Only the root queues detection work; while some is queued, the log
  // (report provenance) and the retained bitmaps must survive until the
  // flush barrier.
  if (pending_.empty()) {
    node_.GarbageCollect();
  }
  if (root && node_.final_barrier_) {
    SnapshotMetrics(epoch);
  }
}

Bitmap BarrierCoordinator::OwnInterest() const {
  const int num_pages = node_.pages_.num_pages();
  Bitmap interest(static_cast<uint32_t>(num_pages));
  // Interested in any page this node ever cached: a usable copy or a
  // retained stale one (a frame survives invalidation).
  // Only pages holding a page-table entry can qualify, so the scan visits
  // just those.
  node_.pages_.ForEachEntry([&interest](PageId page, const PageEntry& entry) {
    if (entry.frame != nullptr) {
      interest.Set(static_cast<uint32_t>(page));
    }
  });
  // Pages this node is HOME for are always interesting, cached or not:
  // this bitmap is a snapshot taken at barrier arrival, but a node
  // blocked in the barrier keeps serving page requests from stragglers,
  // and the home is where a never-touched page can be lazily
  // materialized to serve such a fetch. Under single-writer, granting
  // ownership away retains a stale-able read copy — one the shipped
  // snapshot does not cover, so without the home clause its
  // invalidation gets filtered and the next epoch reads stale data.
  // Every other mid-barrier state change happens on pages the node
  // already held data for (the node cannot fetch: it is blocked in the
  // barrier). Homes are 1/n of the address space per node, so the clause
  // keeps the down-leg sub-quadratic. The mapping mirrors
  // CoherenceProtocol::HomeOf (page % num_nodes).
  for (PageId page = node_.id_; page < num_pages; page += node_.opts_.num_nodes) {
    interest.Set(static_cast<uint32_t>(page));
  }
  return interest;
}

void BarrierCoordinator::QueueTreeCheckList(EpochId epoch, std::vector<CheckPair> pairs,
                                            const std::vector<TreeFragmentPair>& fragments,
                                            DetectorStats claim_stats) {
  NodeTiming& timing = node_.timing_;
  DetectTimer detect_timer{timing, timing.now_ps(), &pipeline_stats_.detect_ps};
  // Rehydrate the subtree fragments from the merged log (every record
  // reaches the root) and interleave the root's own claims; (a.id, b.id)
  // order is exactly the flat serial scan's emission order, so the
  // merged check list — and with it every downstream report — is
  // byte-identical to the flat pipeline's.
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
  // Claims see pairs, not the whole epoch: the in-overlap count comes from
  // the merged list, exactly as the flat build computes it.
  claim_stats.intervals_in_overlap = RaceDetector::MemberIntervals(pairs).size();
  node_.system_->detector().AccumulateBuild(claim_stats);
  if (have_metrics_) {
    mh_.check_pairs->Add(pairs.size());
  }
  if (!pairs.empty()) {
    QueueDetection(epoch, std::move(pairs));
  }
}

template <typename M>
void BarrierCoordinator::Receive(const Inbound<M>& in, int64_t sent_ps) {
  const CostParams& costs = node_.opts_.costs;
  node_.timing_.ObserveAtLeast(sent_ps +
                               NsToPs(costs.MessageCost(in.wire_bytes - in.read_notice_bytes)));
  if (in.read_notice_bytes > 0) {
    node_.timing_.Charge(Bucket::kCvmMods,
                         costs.per_byte_ns * static_cast<double>(in.read_notice_bytes));
  }
}

void BarrierCoordinator::SendReleases(
    EpochId epoch, const std::map<NodeId, Inbound<BarrierTreeArriveMsg>>& arrivals) {
  const bool combine = node_.opts_.barrier_tree;
  for (const auto& [child, arrival] : arrivals) {
    BarrierTreeReleaseMsg release;
    release.epoch = epoch;
    release.merged_vc = node_.vc_;
    release.intervals = node_.log_.UnseenBy(arrival.msg.min_vc);
    if (combine) {
      // Interest filtering is what keeps the release wave sub-quadratic: a
      // record whose write notices miss every valid copy in the child
      // subtree would be applied as a pure no-op there (invalidating an
      // invalid page) and then garbage-collected immediately — so it never
      // travels. The no-op claim leans on the interest fold including each
      // node's home pages (see OwnInterest): copies materialized mid-barrier
      // to serve stragglers appear only at homes, so they are covered
      // despite postdating the snapshot. Read notices are stripped for the
      // same reason records are: below the root they only feed the
      // (already finished) race check.
      Bitmap interest(static_cast<uint32_t>(node_.pages_.num_pages()));
      for (PageId page : arrival.msg.interest) {
        interest.Set(static_cast<uint32_t>(page));
      }
      std::erase_if(release.intervals, [&interest](const IntervalRecord& record) {
        return std::none_of(record.write_pages.begin(), record.write_pages.end(),
                            [&interest](PageId page) {
                              return interest.Test(static_cast<uint32_t>(page));
                            });
      });
      for (IntervalRecord& record : release.intervals) {
        record.read_pages.clear();
      }
    }
    release.release_time_ps = node_.timing_.now_ps();
    if (combine) {
      node_.Send(child, std::move(release));
    } else {
      node_.Send(child, ToFlat(std::move(release)));
    }
  }
}

void BarrierCoordinator::SnapshotMetrics(EpochId epoch) {
  if (node_.metrics_ == nullptr) {
    return;
  }
  node_.PublishOverhead();
  const int interval = std::max(1, node_.opts_.trace.metrics_interval);
  if ((epoch + 1) % interval == 0 || node_.final_barrier_) {
    node_.metrics_->SnapshotEpoch(epoch, node_.timing_.now_ns());
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

void BarrierCoordinator::RunRaceDetection(EpochId epoch,
                                          const std::vector<IntervalRecord>& epoch_intervals) {
  RaceDetector& detector = node_.system_->detector();
  const DetectorStats before = detector.stats();
  const DsmOptions& opts = node_.opts_;
  NodeTiming& timing = node_.timing_;
  // Master sim time spent in the check, whatever exit path is taken — the
  // quantity the pipeline ablation compares across modes.
  DetectTimer detect_timer{timing, timing.now_ps(), &pipeline_stats_.detect_ps};
  // The distributed master's build is modeled as detect_shards parallel
  // shards; the serial master is the paper's single scan.
  const int shards_wanted =
      opts.detection_pipeline == DetectionPipeline::kDistributed ? opts.detect_shards : 1;
  std::vector<DetectorStats> per_shard;
  std::vector<CheckPair> pairs;
  {
    obs::Span overlap_span(node_.tracer_, node_.id_, "detector.overlap", "race", timing, epoch);
    pairs = detector.BuildCheckListSharded(epoch_intervals, shards_wanted, &per_shard);
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
    overlap_span.SetArg("pairs", pairs.size());
  }
  if (have_metrics_) {
    const DetectorStats& after = detector.stats();
    mh_.check_pairs->Add(after.overlapping_pairs - before.overlapping_pairs);
    mh_.shard_count->Add(per_shard.size());
  }
  if (pairs.empty()) {
    return;
  }
  pipeline_stats_.shards_used = std::max<uint64_t>(pipeline_stats_.shards_used, per_shard.size());
  QueueDetection(epoch, std::move(pairs));
}

void BarrierCoordinator::QueueDetection(EpochId epoch, std::vector<CheckPair> pairs) {
  ++pipeline_stats_.detect_epochs;
  // The check list fixes the distinct (interval, page) bitmaps step 5 needs;
  // every pipeline mode accounts them once here (§4 step 3).
  std::vector<std::pair<IntervalId, PageId>> needed = RaceDetector::BitmapsNeeded(pairs);
  if (have_metrics_) {
    mh_.checklist_entries->Add(needed.size());
  }
  pending_.push_back(PendingEpoch{epoch, std::move(pairs), std::move(needed)});
}

void BarrierCoordinator::FlushDetection(EpochId epoch) {
  const DsmOptions& opts = node_.opts_;
  if (pending_.empty() || ((epoch + 1) % opts.detect_batch != 0 && !node_.final_barrier_)) {
    return;
  }
  NodeTiming& timing = node_.timing_;
  DetectTimer detect_timer{timing, timing.now_ps(), &pipeline_stats_.detect_ps};
  if (opts.detect_batch > 1) {
    ++pipeline_stats_.batch_rounds;
    pipeline_stats_.batched_epochs += pending_.size();
    if (have_metrics_) {
      mh_.batch_rounds->Add(1);
      mh_.batch_epochs->Add(pending_.size());
    }
  }
  if (opts.detection_pipeline == DetectionPipeline::kDistributed) {
    // One distributed round per queued epoch, oldest first. The messages
    // carry the flush barrier's epoch (constituents reject anything older
    // than their current barrier); only the reports are stamped with the
    // epoch the pairs came from.
    for (const PendingEpoch& pending : pending_) {
      PublishReports(RunDistributedCompare(epoch, pending));
    }
  } else {
    CompareEpochsSerial(epoch);
  }
  pending_.clear();
}

void BarrierCoordinator::ChargeCompares(uint64_t compared) {
  const double chunks = static_cast<double>((node_.opts_.page_size / kWordSize + 63) / 64);
  node_.timing_.Charge(Bucket::kBitmaps, node_.opts_.costs.bitmap_cmp_word_ns * chunks *
                                             static_cast<double>(compared));
}

void BarrierCoordinator::CompareEpochsSerial(EpochId msg_epoch) {
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
  for (const PendingEpoch& w : pending_) {
    for (const auto& [interval, page] : w.needed) {
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
    node_.Await([this] { return bitmap_replies_pending_ == 0; });
    timing.Charge(Bucket::kBitmaps,
                  opts.costs.per_byte_ns * static_cast<double>(bitmap_round_bytes_));
  }

  const uint64_t compared_before = detector.stats().bitmap_pairs_compared;
  BitmapLookup lookup = [this](const IntervalId& interval, PageId page) {
    auto it = collected_bitmaps_.find(std::make_pair(interval, page));
    return it == collected_bitmaps_.end() ? nullptr : &it->second;
  };
  std::vector<std::vector<RaceReport>> all_reports;
  all_reports.reserve(pending_.size());
  size_t total_reports = 0;
  for (const PendingEpoch& w : pending_) {
    all_reports.push_back(detector.CompareBitmaps(w.pairs, lookup, w.epoch, w.needed.size()));
    total_reports += all_reports.back().size();
  }
  const uint64_t compared = detector.stats().bitmap_pairs_compared - compared_before;
  ChargeCompares(compared);
  pipeline_stats_.bitmap_bytes_wire += bitmap_round_bytes_;
  pipeline_stats_.bitmap_bytes_raw += bitmap_round_raw_bytes_;

  bitmaps_span.SetArg("compared", compared);
  if (have_metrics_) {
    mh_.bitmap_pairs_compared->Add(compared);
    mh_.races_reported->Add(total_reports);
    mh_.bitmap_bytes_wire->Add(bitmap_round_bytes_);
    mh_.bitmap_bytes_raw->Add(bitmap_round_raw_bytes_);
    mh_.bitmap_bytes_saved->Add(bitmap_round_raw_bytes_ - bitmap_round_bytes_);
  }
  for (std::vector<RaceReport>& reports : all_reports) {
    PublishReports(std::move(reports));
  }
  collected_bitmaps_.clear();
}

std::vector<RaceReport> BarrierCoordinator::RunDistributedCompare(EpochId msg_epoch,
                                                                  const PendingEpoch& work) {
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
  // Per node: its request (the pairs it owns, the ships it sends) and the
  // ship messages it should expect.
  const size_t num_nodes = static_cast<size_t>(opts.num_nodes);
  std::vector<CompareRequestMsg> requests(num_nodes);
  std::vector<uint32_t> ship_msgs_to(num_nodes, 0);
  std::vector<std::tuple<NodeId, NodeId, IntervalId, PageId>> planned;  // (src, dst, interval, page)
  auto plan_ship = [&](NodeId source, NodeId dest, const IntervalId& interval, PageId page) {
    if (source != dest) {  // The owner already holds its own bitmaps.
      planned.emplace_back(source, dest, interval, page);
    }
  };
  uint32_t index = 0;
  for (const CheckPair& pair : work.pairs) {
    const NodeId na = pair.a.id.node;
    const NodeId nb = pair.b.id.node;
    const NodeId owner = (na == node_.id_ || nb == node_.id_)
                             ? node_.id_
                             : (index % 2 == 0 ? std::min(na, nb) : std::max(na, nb));
    for (PageId page : pair.pages) {
      plan_ship(na, owner, pair.a.id, page);
      plan_ship(nb, owner, pair.b.id, page);
    }
    if (owner == node_.id_) {
      master_pairs.push_back(OwnedPair{index, &pair});
    } else {
      ComparePairEntry entry;
      entry.pair_index = index;
      entry.a = pair.a.id;
      entry.b = pair.b.id;
      entry.pages = pair.pages;
      requests[static_cast<size_t>(owner)].pairs.push_back(std::move(entry));
    }
    ++index;
  }
  // Pairs that share an entry ship it to a common owner once. One
  // BitmapShipMsg travels per distinct (source, dest) edge, so a dest
  // expects as many ship messages as it has distinct sources.
  std::sort(planned.begin(), planned.end());
  planned.erase(std::unique(planned.begin(), planned.end()), planned.end());
  for (size_t i = 0; i < planned.size(); ++i) {
    const auto& [src, dst, interval, page] = planned[i];
    requests[static_cast<size_t>(src)].ships.push_back(ShipDirective{dst, interval, page});
    if (i == 0 || std::get<0>(planned[i - 1]) != src || std::get<1>(planned[i - 1]) != dst) {
      ++ship_msgs_to[static_cast<size_t>(dst)];
    }
  }

  CVM_CHECK_EQ(compare_replies_pending_, 0);
  CVM_CHECK_EQ(master_ships_pending_, 0);
  compare_replies_.clear();
  collected_bitmaps_.clear();
  master_ship_target_ps_ = 0;
  master_ship_bytes_ = EntryBytes{};
  master_ships_pending_ = static_cast<int>(ship_msgs_to[static_cast<size_t>(node_.id_)]);
  compare_replies_pending_ = 0;
  const int64_t request_time = timing.now_ps();
  for (size_t node = 0; node < num_nodes; ++node) {
    CompareRequestMsg& request = requests[node];
    if (request.pairs.empty() && request.ships.empty()) {
      continue;  // No part in this round.
    }
    ++compare_replies_pending_;
    request.epoch = msg_epoch;
    request.request_time_ps = request_time;
    request.expected_ship_msgs = ship_msgs_to[node];
    node_.Send(static_cast<NodeId>(node), std::move(request));
  }

  // The master's own compares need only the peers' shipped bitmaps; its own
  // side resolves from local storage. Compare as soon as the inbound ships
  // land — the remote owners' replies overlap this work (the Lamport merge
  // below takes the max of the two legs, not their sum).
  node_.Await([this] { return master_ships_pending_ == 0; });
  timing.ChargeUntil(Bucket::kBitmaps, master_ship_target_ps_);
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
                                     lookup, work.epoch, &master_compared);
    for (RaceReport& report : pair_reports) {
      tagged.emplace_back(owned.index, std::move(report));
    }
  }
  ChargeCompares(master_compared);

  node_.Await([this] { return compare_replies_pending_ == 0; });
  // The distributed round's cost is its critical path: the slowest node's
  // reply arrival, not the sum over nodes.
  int64_t target_ps = timing.now_ps();
  uint64_t remote_compared = 0;
  uint64_t remote_report_count = 0;
  uint64_t ship_bytes_wire = master_ship_bytes_.wire;
  uint64_t ship_bytes_raw = master_ship_bytes_.raw;
  for (const Inbound<CompareReplyMsg>& info : compare_replies_) {
    target_ps = std::max(target_ps,
                         info.msg.reply_time_ps + NsToPs(opts.costs.MessageCost(info.wire_bytes)));
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
      report.epoch = work.epoch;
      tagged.emplace_back(e.pair_index, std::move(report));
    }
  }
  timing.ChargeUntil(Bucket::kBitmaps, target_ps);
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

  detector.AccumulateCompare(work.needed.size(), master_compared + remote_compared);
  pipeline_stats_.bitmap_bytes_wire += ship_bytes_wire;
  pipeline_stats_.bitmap_bytes_raw += ship_bytes_raw;
  pipeline_stats_.remote_pairs_compared += remote_compared;
  pipeline_stats_.remote_reports += remote_report_count;
  span.SetArg("remote_pairs", remote_compared);
  if (have_metrics_) {
    mh_.bitmap_pairs_compared->Add(master_compared + remote_compared);
    mh_.races_reported->Add(reports.size());
    mh_.bitmap_bytes_wire->Add(ship_bytes_wire);
    mh_.bitmap_bytes_raw->Add(ship_bytes_raw);
    mh_.bitmap_bytes_saved->Add(ship_bytes_raw - ship_bytes_wire);
    mh_.remote_pairs->Add(remote_compared);
    mh_.remote_reports->Add(remote_report_count);
  }
  return reports;
}

void BarrierCoordinator::OnArrive(Message& msg) {
  const size_t read_notice_bytes = PayloadReadNoticeBytes(msg.payload);
  auto* flat = std::get_if<BarrierArriveMsg>(&msg.payload);
  BarrierTreeArriveMsg arrive = flat != nullptr
                                    ? FromFlat(std::move(*flat))
                                    : std::move(std::get<BarrierTreeArriveMsg>(msg.payload));
  if (arrive.epoch < node_.epoch_) {
    return;  // This epoch's combine already ran here: stale re-delivery.
  }
  if (have_metrics_ && flat == nullptr) {
    mh_.tree_up_bytes->Add(msg.wire_bytes);
    mh_.tree_fragments->Add(arrive.fragments.size());
  }
  auto& slot = arrivals_[arrive.epoch][arrive.node];
  slot = Inbound<BarrierTreeArriveMsg>{std::move(arrive), msg.wire_bytes, read_notice_bytes};
}

void BarrierCoordinator::OnRelease(Message& msg) {
  const size_t read_notice_bytes = PayloadReadNoticeBytes(msg.payload);
  auto* flat = std::get_if<BarrierReleaseMsg>(&msg.payload);
  BarrierTreeReleaseMsg release = flat != nullptr
                                      ? FromFlat(std::move(*flat))
                                      : std::move(std::get<BarrierTreeReleaseMsg>(msg.payload));
  if (release_.has_value() || release.epoch < node_.epoch_) {
    return;  // This epoch's release already landed: stale re-delivery.
  }
  if (have_metrics_ && flat == nullptr) {
    mh_.tree_down_bytes->Add(msg.wire_bytes);
  }
  release_ = Inbound<BarrierTreeReleaseMsg>{std::move(release), msg.wire_bytes, read_notice_bytes};
}

void BarrierCoordinator::OnBitmapRequest(const Message& msg) {
  const auto& request = std::get<BitmapRequestMsg>(msg.payload);
  BitmapReplyMsg reply;
  reply.epoch = request.epoch;
  for (const CheckEntry& entry : request.entries) {
    EncodeEntry(entry.interval, entry.page, &reply.entries);
  }
  node_.Send(msg.from, std::move(reply));
}

void BarrierCoordinator::EntryBytes::Add(const BitmapReplyEntry& entry) {
  wire += sizeof(IntervalId) + sizeof(PageId) + entry.read.WireBytes() + entry.write.WireBytes();
  raw += sizeof(IntervalId) + sizeof(PageId) + EncodedBitmap::RawWireBytes(entry.read.num_bits) +
         EncodedBitmap::RawWireBytes(entry.write.num_bits);
}

void BarrierCoordinator::EncodeEntry(const IntervalId& interval, PageId page,
                                     std::vector<BitmapReplyEntry>* out) const {
  CVM_CHECK_EQ(interval.node, node_.id_);
  const PageAccessBitmaps* bitmaps = node_.bitmaps_.Find(interval.index, page);
  if (bitmaps == nullptr) {
    return;
  }
  const bool compress = node_.opts_.compress_bitmaps;
  out->push_back(BitmapReplyEntry{interval, page, BitmapCodec::Encode(bitmaps->read, compress),
                                  BitmapCodec::Encode(bitmaps->write, compress)});
}

BarrierCoordinator::EntryBytes BarrierCoordinator::DecodeEntries(
    const std::vector<BitmapReplyEntry>& entries, BitmapMap* out) {
  EntryBytes bytes;
  for (const BitmapReplyEntry& entry : entries) {
    bytes.Add(entry);
    out->emplace(std::make_pair(entry.interval, entry.page),
                 PageAccessBitmaps{BitmapCodec::Decode(entry.read),
                                   BitmapCodec::Decode(entry.write)});
  }
  return bytes;
}

void BarrierCoordinator::OnBitmapReply(const Message& msg) {
  const auto& reply = std::get<BitmapReplyMsg>(msg.payload);
  const EntryBytes entry_bytes = DecodeEntries(reply.entries, &collected_bitmaps_);
  bitmap_round_bytes_ += msg.wire_bytes;
  bitmap_round_raw_bytes_ += msg.wire_bytes + (entry_bytes.raw - entry_bytes.wire);
  CVM_CHECK_GT(bitmap_replies_pending_, 0);
  --bitmap_replies_pending_;
}

void BarrierCoordinator::OnCompareRequest(Message& msg) {
  Inbound<CompareRequestMsg> in = Inbound<CompareRequestMsg>::Of(msg);
  CompareRequestMsg& request = in.msg;
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
  Receive(in, request.request_time_ps);

  // Execute the ship directives immediately: one BitmapShipMsg per distinct
  // destination, sent even when every listed bitmap is gone, so destinations
  // can count messages rather than entries.
  std::map<NodeId, std::vector<BitmapReplyEntry>> by_dest;
  for (const ShipDirective& ship : request.ships) {
    EncodeEntry(ship.interval, ship.page, &by_dest[ship.dest]);
  }
  for (auto& [dest, entries] : by_dest) {
    for (const BitmapReplyEntry& entry : entries) {
      state.ship_bytes.Add(entry);
    }
    BitmapShipMsg out;
    out.epoch = request.epoch;
    out.entries = std::move(entries);
    out.send_time_ps = node_.timing_.now_ps();
    node_.Send(dest, std::move(out));
  }
  const EpochId epoch = request.epoch;
  state.request = std::move(request);
  TryFinishRemoteCompare(epoch);
}

void BarrierCoordinator::OnBitmapShip(Message& msg) {
  const auto& ship = std::get<BitmapShipMsg>(msg.payload);
  if (node_.id_ == 0) {
    // Master side: peers shipping the bitmaps for master-owned pairs.
    if (master_ships_pending_ <= 0 || ship.epoch != node_.epoch_) {
      return;  // Stale re-delivery.
    }
    const EntryBytes entry_bytes = DecodeEntries(ship.entries, &collected_bitmaps_);
    master_ship_bytes_.wire += entry_bytes.wire;
    master_ship_bytes_.raw += entry_bytes.raw;
    master_ship_target_ps_ =
        std::max(master_ship_target_ps_,
                 ship.send_time_ps + NsToPs(node_.opts_.costs.MessageCost(msg.wire_bytes)));
    --master_ships_pending_;
    return;
  }
  if (ship.epoch < node_.epoch_) {
    return;  // Stale re-delivery.
  }
  // Ships can land before this node's own CompareRequest; park them.
  const Inbound<BitmapShipMsg> in = Inbound<BitmapShipMsg>::Of(msg);
  RemoteCompareState& state = remote_compare_[in.msg.epoch];
  Receive(in, in.msg.send_time_ps);
  DecodeEntries(in.msg.entries, &state.shipped);
  ++state.ships_received;
  TryFinishRemoteCompare(in.msg.epoch);
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
  ChargeCompares(compared);
  span.SetArg("pairs", compared);
  reply.pairs_compared = compared;
  reply.ship_bytes_wire = state.ship_bytes.wire;
  reply.ship_bytes_raw = state.ship_bytes.raw;
  reply.reply_time_ps = node_.timing_.now_ps();
  remote_compare_.erase(it);
  node_.Send(0, std::move(reply));
}

void BarrierCoordinator::OnCompareReply(Message& msg) {
  const auto& reply = std::get<CompareReplyMsg>(msg.payload);
  CVM_CHECK_EQ(node_.id_, 0);
  if (compare_replies_pending_ <= 0 || reply.epoch != node_.epoch_) {
    return;  // Stale re-delivery.
  }
  compare_replies_.push_back(Inbound<CompareReplyMsg>::Of(msg));
  --compare_replies_pending_;
}

}  // namespace cvm
