// Deterministic simulated-time model. The paper's performance numbers are
// relative (slowdown factors, overhead-breakdown percentages), so we model
// time with per-node logical clocks advanced by configurable per-event costs
// and synchronized Lamport-style at locks and barriers. Defaults are
// calibrated to the paper's platform class (250 MHz Alpha, 155 Mbit ATM).
#ifndef CVM_SIM_COST_MODEL_H_
#define CVM_SIM_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/check.h"

namespace cvm {

// All costs in nanoseconds of simulated time.
struct CostParams {
  // Application-side costs.
  double base_access_ns = 12;     // An ordinary load/store plus surrounding work.
  double compute_unit_ns = 40;    // One unit of app-declared computation.

  // Instrumentation (Figure 3 "Proc Call" and "Access Check"). ATOM cannot
  // inline, so every candidate access pays a call plus the analysis body.
  double proc_call_ns = 250;
  double access_check_ns = 200;

  // Consistency-protocol software costs.
  double page_fault_ns = 12000;
  double lock_op_ns = 4000;
  double barrier_op_ns = 8000;
  double diff_word_ns = 25;

  // Race-detection costs ("CVM Mods", "Intervals", "Bitmaps").
  double notice_setup_ns = 250;       // Creating one read/write notice + bitmap.
  // Clearing the statically-allocated per-page access bitmaps at each epoch
  // boundary ("All data structures, including bitmaps, are statically
  // allocated" — §4); ~2x128B of zeroing per page on the modelled CPU.
  double bitmap_clear_page_ns = 8000;
  double interval_setup_ns = 1200;    // Extra structure setup per interval.
  double interval_cmp_ns = 60;        // One version-vector concurrency test.
  double page_overlap_ns = 35;        // Per page-pair overlap probe.
  double bitmap_cmp_word_ns = 1.6;    // Per 64-bit word of bitmap comparison.
  // Forking/joining one shard of the modeled parallel check-list build
  // (thread wake, cache warm-up, result hand-back). Charged per shard used,
  // so over-sharding a small epoch visibly costs more than it saves.
  double shard_fork_ns = 2500;
  // Hierarchical-barrier costs. tree_merge_ns is the software cost of
  // folding one child's combine message into the parent's state (log merge
  // + VC max), charged per child per barrier at every interior node of the
  // combine tree. page_index_ns is the per-entry cost of building the
  // page -> accessing-intervals index the tree's fragment builder uses in
  // place of the all-pairs scan.
  double tree_merge_ns = 1800;
  double page_index_ns = 20;

  // Network (155 Mbit ATM with user-level UDP protocols). Latency is set at
  // the optimistic end so that, at our scaled-down input sizes, the
  // computation-to-communication balance matches the paper's full-size runs.
  double msg_latency_ns = 60000;
  double per_byte_ns = 52;

  double MessageCost(size_t bytes) const {
    return msg_latency_ns + per_byte_ns * static_cast<double>(bytes);
  }
};

// Overhead attribution buckets, matching Figure 3's categories exactly.
enum class Bucket : int {
  kCvmMods = 0,     // Data-structure setup + read-notice bandwidth.
  kProcCall = 1,    // Instrumentation procedure-call overhead.
  kAccessCheck = 2, // Shared-address check + bitmap set.
  kIntervals = 3,   // Concurrent-interval comparison at the master.
  kBitmaps = 4,     // Extra barrier round + bitmap comparisons.
  kNone = 5,        // Base work; not race-detection overhead.
};

inline constexpr int kNumBuckets = 5;

const char* BucketName(Bucket bucket);

// Metrics-registry counter name for a bucket's accumulated overhead, e.g.
// "overhead.cvm_mods_ns". Each node publishes per-epoch deltas of these at
// barriers; tools/trace_summary maps them back to Figure 3's buckets.
const char* BucketMetricName(Bucket bucket);

// One node's simulated clock plus per-bucket overhead accounting. Guarded
// externally by the node's mutex.
class NodeTiming {
 public:
  double now_ns() const { return now_ns_; }

  // Advances the clock, attributing the time to `bucket`.
  void Charge(Bucket bucket, double ns) {
    CVM_CHECK_GE(ns, 0.0);
    now_ns_ += ns;
    if (bucket != Bucket::kNone) {
      overhead_ns_[static_cast<int>(bucket)] += ns;
    }
  }

  // Lamport receive rule: the clock cannot be behind an observed event.
  void ObserveAtLeast(double t_ns) {
    if (t_ns > now_ns_) {
      now_ns_ = t_ns;
    }
  }

  double overhead_ns(Bucket bucket) const {
    return overhead_ns_[static_cast<int>(bucket)];
  }
  double total_overhead_ns() const {
    double total = 0;
    for (double v : overhead_ns_) {
      total += v;
    }
    return total;
  }

  void AddOverheadFrom(const NodeTiming& other) {
    for (int i = 0; i < kNumBuckets; ++i) {
      overhead_ns_[i] += other.overhead_ns_[i];
    }
  }

 private:
  double now_ns_ = 0;
  std::array<double, kNumBuckets> overhead_ns_ = {};
};

}  // namespace cvm

#endif  // CVM_SIM_COST_MODEL_H_
