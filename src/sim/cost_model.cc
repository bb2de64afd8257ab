#include "src/sim/cost_model.h"

namespace cvm {

NodeTiming::NodeTiming(const CostParams& costs)
    : base_access_ps_(NsToPs(costs.base_access_ns)),
      proc_call_ps_(NsToPs(costs.proc_call_ns)),
      access_check_ps_(NsToPs(costs.access_check_ns)),
      compute_unit_ps_(NsToPs(costs.compute_unit_ns)),
      instrumented_access_ps_(base_access_ps_ + proc_call_ps_ + access_check_ps_) {
  CVM_CHECK_GE(costs.base_access_ns, 0.0);
  CVM_CHECK_GE(costs.proc_call_ns, 0.0);
  CVM_CHECK_GE(costs.access_check_ns, 0.0);
  CVM_CHECK_GE(costs.compute_unit_ns, 0.0);
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
