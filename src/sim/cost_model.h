// Deterministic simulated-time model. The paper's performance numbers are
// relative (slowdown factors, overhead-breakdown percentages), so we model
// time with per-node logical clocks advanced by configurable per-event costs
// and synchronized Lamport-style at locks and barriers. Defaults are
// calibrated to the paper's platform class (250 MHz Alpha, 155 Mbit ATM).
#ifndef CVM_SIM_COST_MODEL_H_
#define CVM_SIM_COST_MODEL_H_

#include <array>
#include <cmath>
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

// Simulated time is kept in integer picoseconds; costs are given in ns
// (CostParams) and round to the nearest ps once, where they are charged.
inline int64_t NsToPs(double ns) { return std::llround(ns * 1000); }
inline double PsToNs(int64_t ps) { return static_cast<double>(ps) / 1000; }

// One node's simulated clock plus per-bucket overhead accounting, in int64_t
// picoseconds (2^63 ps is over 100 days), so no sum ever rounds and none
// depends on the order of its terms. Not thread-safe: only the owning node's
// thread touches it.
//
// Counted accesses. The inline access path charges by count: CountAccess and
// CountCompute only bump pending counters, and every reader and every other
// charge folds those counts in first with one multiply-add per cost. Integer
// sums are exact, so callers see the same clock and buckets, to the ps, as if
// each access had been charged on its own.
class NodeTiming {
 public:
  NodeTiming() : NodeTiming(CostParams{}) {}
  // Checks the inline costs are >= 0 once here, so the counted path needs
  // no per-access check.
  explicit NodeTiming(const CostParams& costs);

  int64_t now_ps() const { return now_ps_ + PendingClockPs(); }
  double now_ns() const { return PsToNs(now_ps()); }

  // One instrumented (or, with detection off, plain) access: the base access
  // cost, plus Proc Call and Access Check when `instrumented`.
  void CountAccess(bool instrumented) { ++pending_accesses_[instrumented ? 1 : 0]; }

  // `units` of app-declared computation.
  void CountCompute(uint64_t units) { pending_compute_units_ += static_cast<int64_t>(units); }

  // Advances the clock, attributing the time to `bucket`.
  void Charge(Bucket bucket, double ns) {
    CVM_CHECK_GE(ns, 0.0);
    Fold();
    Add(bucket, NsToPs(ns));
  }

  // Advances the clock to `t_ps` if it is behind, attributing the wait to
  // `bucket`.
  void ChargeUntil(Bucket bucket, int64_t t_ps) {
    Fold();
    if (t_ps > now_ps_) {
      Add(bucket, t_ps - now_ps_);
    }
  }

  // Lamport receive rule: the clock cannot be behind an observed event.
  void ObserveAtLeast(int64_t t_ps) { ChargeUntil(Bucket::kNone, t_ps); }

  int64_t overhead_ps(Bucket bucket) const {
    const int b = static_cast<int>(bucket);
    if (bucket == Bucket::kProcCall) {
      return overhead_ps_[b] + pending_accesses_[1] * proc_call_ps_;
    }
    if (bucket == Bucket::kAccessCheck) {
      return overhead_ps_[b] + pending_accesses_[1] * access_check_ps_;
    }
    return overhead_ps_[b];
  }
  double overhead_ns(Bucket bucket) const { return PsToNs(overhead_ps(bucket)); }

 private:
  void Add(Bucket bucket, int64_t ps) {
    now_ps_ += ps;
    if (bucket != Bucket::kNone) {
      overhead_ps_[static_cast<int>(bucket)] += ps;
    }
  }

  // What the pending counts add to the clock.
  int64_t PendingClockPs() const {
    return pending_accesses_[0] * base_access_ps_ +
           pending_accesses_[1] * instrumented_access_ps_ +
           pending_compute_units_ * compute_unit_ps_;
  }

  // Applies the pending counts to the accumulators and zeroes them.
  void Fold() {
    now_ps_ = now_ps();
    for (Bucket bucket : {Bucket::kProcCall, Bucket::kAccessCheck}) {
      overhead_ps_[static_cast<int>(bucket)] = overhead_ps(bucket);
    }
    pending_accesses_ = {};
    pending_compute_units_ = 0;
  }

  // The inline costs, from CostParams.
  int64_t base_access_ps_;
  int64_t proc_call_ps_;
  int64_t access_check_ps_;
  int64_t compute_unit_ps_;
  int64_t instrumented_access_ps_;  // base + proc call + access check.

  int64_t now_ps_ = 0;
  std::array<int64_t, kNumBuckets> overhead_ps_ = {};

  // [0] plain accesses, [1] instrumented ones.
  std::array<int64_t, 2> pending_accesses_ = {};
  int64_t pending_compute_units_ = 0;
};

}  // namespace cvm

#endif  // CVM_SIM_COST_MODEL_H_
