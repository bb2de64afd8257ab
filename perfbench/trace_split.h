// Splits one traced run's host and simulated time across the simulator's
// layers, from the complete ('X') spans the program already emits:
//   page.fault.read / page.fault.write  (mem; contains page.fetch)
//   page.fetch                          (mem / protocol)
//   diff.flush                          (protocol, multi-writer only)
//   lock.acquire                        (dsm.lock)
//   barrier                             (dsm.barrier; contains detector.*)
//   detector.*                          (race)
// plus one span per node that the benchmark records around the app body.
#ifndef CVM_PERFBENCH_TRACE_SPLIT_H_
#define CVM_PERFBENCH_TRACE_SPLIT_H_

#include <vector>

#include "perfbench/stats.h"
#include "src/obs/tracer.h"

namespace perfbench {

// Sums over all nodes, in milliseconds.
struct LayerSplit {
  // App-body wall time covered by no fault, fetch, diff-flush, lock or
  // barrier span: the app's own work plus the instrumented access shim.
  double instr_self_host_ms = 0;
  double fault_self_host_ms = 0;  // Fault spans minus their page.fetch.
  double fetch_host_ms = 0;
  double diff_flush_host_ms = 0;
  double lock_acquire_host_ms = 0;
  double lock_acquire_sim_ms = 0;
  double barrier_self_host_ms = 0;  // Barrier spans minus detector.* spans.
  double barrier_self_sim_ms = 0;
  double detect_host_ms = 0;  // Union of detector.* spans.
};

// `app_bodies[n]` is node n's app body on the tracer's wall clock (ns).
LayerSplit SplitTrace(const std::vector<cvm::obs::TraceEvent>& events,
                      const std::vector<Span1D>& app_bodies);

}  // namespace perfbench

#endif  // CVM_PERFBENCH_TRACE_SPLIT_H_
