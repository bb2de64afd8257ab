#include "src/sim/cost_model.h"

#include <cmath>

namespace cvm {

namespace {

// Doubles hold every integer below 2^53 exactly; sums of such integers that
// stay below it never round.
constexpr double kExactLimitNs = 9007199254740992.0;  // 2^53

bool ExactInteger(double v) { return v >= 0 && v < kExactLimitNs && std::floor(v) == v; }

}  // namespace

NodeTiming::NodeTiming(const CostParams& costs)
    : base_access_ns_(costs.base_access_ns),
      proc_call_ns_(costs.proc_call_ns),
      access_check_ns_(costs.access_check_ns),
      compute_unit_ns_(costs.compute_unit_ns),
      instrumented_access_ns_(costs.base_access_ns + costs.proc_call_ns +
                              costs.access_check_ns) {
  CVM_CHECK_GE(base_access_ns_, 0.0);
  CVM_CHECK_GE(proc_call_ns_, 0.0);
  CVM_CHECK_GE(access_check_ns_, 0.0);
  CVM_CHECK_GE(compute_unit_ns_, 0.0);
  costs_integral_ = ExactInteger(base_access_ns_) && ExactInteger(proc_call_ns_) &&
                    ExactInteger(access_check_ns_) && ExactInteger(compute_unit_ns_) &&
                    ExactInteger(instrumented_access_ns_);
  UpdateCounting();
}

void NodeTiming::Fold() {
  if (!counting_) {
    return;  // Nothing is pending while counting is off.
  }
  const double clock = now_ns();
  const double proc_call = overhead_ns(Bucket::kProcCall);
  const double access_check = overhead_ns(Bucket::kAccessCheck);
  // Past 2^53 ns (104 days) the folded sums could round where the
  // per-access adds would not.
  CVM_CHECK(ExactInteger(clock) && ExactInteger(proc_call) && ExactInteger(access_check))
      << "counted charges left the exact range: clock " << clock << " ns";
  now_ns_ = clock;
  overhead_ns_[static_cast<int>(Bucket::kProcCall)] = proc_call;
  overhead_ns_[static_cast<int>(Bucket::kAccessCheck)] = access_check;
  pending_accesses_ = {};
  pending_compute_units_ = 0;
}

void NodeTiming::UpdateCounting() {
  counting_ = costs_integral_ && ExactInteger(now_ns_) &&
              ExactInteger(overhead_ns_[static_cast<int>(Bucket::kProcCall)]) &&
              ExactInteger(overhead_ns_[static_cast<int>(Bucket::kAccessCheck)]);
}

const char* BucketName(Bucket bucket) {
  switch (bucket) {
    case Bucket::kCvmMods:
      return "CVM Mods";
    case Bucket::kProcCall:
      return "Proc Call";
    case Bucket::kAccessCheck:
      return "Access Check";
    case Bucket::kIntervals:
      return "Intervals";
    case Bucket::kBitmaps:
      return "Bitmaps";
    case Bucket::kNone:
      return "Base";
  }
  return "?";
}

const char* BucketMetricName(Bucket bucket) {
  switch (bucket) {
    case Bucket::kCvmMods:
      return "overhead.cvm_mods_ns";
    case Bucket::kProcCall:
      return "overhead.proc_call_ns";
    case Bucket::kAccessCheck:
      return "overhead.access_check_ns";
    case Bucket::kIntervals:
      return "overhead.intervals_ns";
    case Bucket::kBitmaps:
      return "overhead.bitmaps_ns";
    case Bucket::kNone:
      return "overhead.base_ns";
  }
  return "overhead.unknown_ns";
}

}  // namespace cvm
