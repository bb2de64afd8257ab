#include "src/dsm/dsm.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "src/common/check.h"

namespace cvm {

DsmSystem::DsmSystem(DsmOptions options) : options_(std::move(options)) {
  CVM_CHECK_GT(options_.num_nodes, 0);
  CVM_CHECK_GT(options_.num_locks, 0);
  CVM_CHECK_GE(options_.detect_shards, 1);
  // The access shim splits addresses into page and word with a shift and a
  // mask.
  CVM_CHECK(std::has_single_bit(options_.page_size))
      << "page_size " << options_.page_size << " is not a power of two";
  if (options_.write_detection == WriteDetection::kDiffs) {
    CVM_CHECK(ProtocolSupportsDiffWriteDetection(options_.protocol))
        << "diff-based write detection requires the multi-writer protocol (§6.5)";
  }
  segment_ = std::make_unique<SharedSegment>(options_.page_size, options_.max_shared_bytes);
  network_ = std::make_unique<Network>(options_.num_nodes);
  detector_ =
      std::make_unique<RaceDetector>(segment_->num_pages(), options_.overlap_method);
  if constexpr (obs::kObsCompiledIn) {
    if (options_.trace.trace_enabled) {
      tracer_ = std::make_unique<obs::Tracer>(options_.num_nodes, options_.trace);
    }
    if (options_.trace.metrics_enabled) {
      metrics_ = std::make_unique<obs::MetricsRegistry>();
    }
    if (options_.trace.enabled()) {
      network_->AttachObservability(tracer_.get(), metrics_.get());
    }
  }
  ApplyFaultPlan(options_.fault_plan);
}

void DsmSystem::ApplyFaultPlan(const fault::FaultPlan& plan_in) {
  if (!plan_in.enabled()) {
    injector_.reset();
    network_->AttachFaultInjector(nullptr);
    return;
  }
  fault::FaultPlan plan = plan_in;
  // Derive unset transport timings from the cost model so retransmission
  // timeouts scale with the modeled network.
  if (plan.rto_base_ns <= 0) {
    plan.rto_base_ns = 2 * options_.costs.MessageCost(kMessageHeaderBytes + 256);
  }
  if (plan.rto_cap_ns <= 0) {
    plan.rto_cap_ns = 32 * plan.rto_base_ns;
  }
  if (plan.delay_hop_ns <= 0) {
    plan.delay_hop_ns = options_.costs.msg_latency_ns;
  }
  injector_ = std::make_unique<fault::FaultInjector>(plan, options_.num_nodes);
  network_->AttachFaultInjector(injector_.get());
}

void DsmSystem::SetFaultPlan(const fault::FaultPlan& plan) {
  CVM_CHECK(!ran_) << "SetFaultPlan is only legal before Run() (Reset() first)";
  options_.fault_plan = plan;
  ApplyFaultPlan(plan);
}

void DsmSystem::Reset() {
  // Run() has joined every app and service thread by the time it returns, so
  // nothing is touching the engines here.
  for (auto& node : nodes_) {
    if (node != nullptr) {
      node->JoinService();
    }
  }
  nodes_.clear();
  network_->Reset();
  detector_->ResetStats();
  trace_.Clear();
  if constexpr (obs::kObsCompiledIn) {
    if (tracer_ != nullptr) {
      tracer_->Reset();
    }
    if (metrics_ != nullptr) {
      metrics_->Reset();
    }
  }
  segment_->Reset();
  {
    std::lock_guard<std::mutex> guard(results_mu_);
    reports_.clear();
    watch_hits_.clear();
    recorded_schedule_ = SyncSchedule{};
    crash_outcome_ = CrashOutcome{};
  }
  ran_ = false;
}

DsmSystem::~DsmSystem() {
  network_->Close();
  for (auto& node : nodes_) {
    if (node != nullptr) {
      node->JoinService();
    }
  }
}

GlobalAddr DsmSystem::Alloc(const std::string& name, uint64_t bytes, bool page_align) {
  CVM_CHECK(!ran_) << "allocate shared data before Run()";
  return segment_->Alloc(name, bytes, page_align);
}

Node& DsmSystem::node(NodeId id) {
  CVM_CHECK_GE(id, 0);
  CVM_CHECK_LT(id, static_cast<NodeId>(nodes_.size()));
  return *nodes_[id];
}

void DsmSystem::AddReports(std::vector<RaceReport> reports) {
  std::lock_guard<std::mutex> guard(results_mu_);
  for (RaceReport& report : reports) {
    reports_.push_back(std::move(report));
  }
}

void DsmSystem::AddWatchHit(WatchHit hit) {
  std::lock_guard<std::mutex> guard(results_mu_);
  watch_hits_.push_back(std::move(hit));
}

size_t DsmSystem::ReportCount() {
  std::lock_guard<std::mutex> guard(results_mu_);
  return reports_.size();
}

void DsmSystem::TruncateReports(size_t count) {
  std::lock_guard<std::mutex> guard(results_mu_);
  if (reports_.size() > count) {
    reports_.resize(count);
  }
}

void DsmSystem::NoteCrash(const RunAbortError& err, EpochId checkpoint_epoch,
                          size_t locks_recovered, uint64_t checkpoint_bytes) {
  std::lock_guard<std::mutex> guard(results_mu_);
  crash_outcome_.crashed = true;
  // The crashing node reports its own death authoritatively; survivors only
  // fill the slot in if the self-report has not landed yet.
  if (err.self_crash || crash_outcome_.crash_node == kNoNode) {
    crash_outcome_.crash_node = err.dead;
    crash_outcome_.crash_epoch = err.epoch;
  }
  // checkpoint_epoch is the epoch the restored cut begins; everything before
  // it has been fully race-checked. All nodes report the same value (no
  // barrier can complete once a member is dead) — min() is defensive.
  const EpochId consistent = checkpoint_epoch - 1;
  if (crash_outcome_.rollbacks == 0 || consistent < crash_outcome_.last_consistent_epoch) {
    crash_outcome_.last_consistent_epoch = consistent;
  }
  ++crash_outcome_.rollbacks;
  crash_outcome_.locks_recovered += locks_recovered;
  crash_outcome_.checkpoint_bytes = std::max(crash_outcome_.checkpoint_bytes, checkpoint_bytes);
}

RunResult DsmSystem::Run(const std::function<void(NodeContext&)>& app) {
  CVM_CHECK(!ran_) << "one Run() per Reset() cycle; call Reset() (or construct fresh) first";
  ran_ = true;

  const auto wall_start = std::chrono::steady_clock::now();

  nodes_.reserve(options_.num_nodes);
  for (NodeId id = 0; id < options_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<Node>(id, this));
  }
  for (auto& node : nodes_) {
    node->StartService();
  }

  std::vector<std::thread> app_threads;
  app_threads.reserve(options_.num_nodes);
  for (NodeId id = 0; id < options_.num_nodes; ++id) {
    app_threads.emplace_back([this, id, &app] {
      Node& node = *nodes_[id];
      try {
        app(node);
        // Implicit final barrier: the last epoch's accesses get race-checked
        // (the system only discards trace data after checking it). Marked
        // final so a mid-batch detection queue flushes here.
        node.MarkFinalBarrier();
        node.Barrier();
      } catch (const RunAbortError& err) {
        // A node died this run (this one, if err.self_crash). Discard the
        // torn epoch and restore the last consistent cut; whether the
        // workload is retried is the service layer's call, not ours.
        node.RecoverAfterAbort(err);
      }
    });
  }
  for (std::thread& t : app_threads) {
    t.join();
  }

  network_->Close();
  for (auto& node : nodes_) {
    node->JoinService();
  }
  if constexpr (obs::kObsCompiledIn) {
    if (tracer_ != nullptr) {
      tracer_->DrainAll();  // Events emitted after the last barrier.
    }
  }
  if (options_.race_detection && options_.postmortem_trace) {
    for (const auto& node : nodes_) {
      node->DumpTraceBitmaps(trace_);
    }
  }

  RunResult result;
  {
    std::lock_guard<std::mutex> guard(results_mu_);
    // Deduplicate identical (kind, word, pair) reports; the same race can be
    // observed from several overlapping check-list entries.
    for (const RaceReport& report : reports_) {
      bool duplicate = false;
      for (const RaceReport& kept : result.races) {
        if (kept.SameRace(report)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        result.races.push_back(report);
      }
    }
    if (options_.first_races_only) {
      result.races = FilterFirstRaces(result.races);
    }
    result.watch_hits = watch_hits_;
    result.recorded_schedule = recorded_schedule_;
    result.recovery = crash_outcome_;
  }

  result.net = network_->stats();
  result.fault = network_->fault_stats();
  result.detector = detector_->stats();
  result.shared_bytes_used = segment_->used_bytes();
  for (const auto& node : nodes_) {
    result.access.Accumulate(node->access_counters());
    result.dispatch_unhandled += node->dispatcher().unhandled();
    result.intervals_total += node->intervals_created();
    result.page_faults += node->page_faults();
    result.bitmap_pairs_recorded += node->bitmap_pairs_recorded();
    result.max_interval_log_size =
        std::max(result.max_interval_log_size, node->max_interval_log_size());
    result.max_retained_bitmap_pairs =
        std::max(result.max_retained_bitmap_pairs, node->max_retained_bitmap_pairs());
    result.sim_time_ns = std::max(result.sim_time_ns, node->timing().now_ns());
    for (int b = 0; b < kNumBuckets; ++b) {
      result.overhead_ns[b] += node->timing().overhead_ns(static_cast<Bucket>(b));
    }
  }
  result.barriers = nodes_.empty() ? 0 : nodes_[0]->barriers();
  if (!nodes_.empty()) {
    result.pipeline = nodes_[0]->pipeline_stats();  // The master runs the pipeline.
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

RunResult RunDsmApp(const DsmOptions& options, const std::function<void(DsmSystem&)>& setup,
                    const std::function<void(NodeContext&)>& app) {
  DsmSystem system(options);
  if (setup) {
    setup(system);
  }
  return system.Run(app);
}

}  // namespace cvm
