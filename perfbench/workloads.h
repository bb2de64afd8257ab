// The benchmark's workloads and the one routine that runs them: a DSM run
// built from public calls only (DsmSystem ctor, app Setup/Alloc, Run,
// Verify, destruction), timed from outside on the host clock, with the
// correctness gate every run must pass.
#ifndef CVM_PERFBENCH_WORKLOADS_H_
#define CVM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "src/apps/app.h"
#include "src/dsm/dsm.h"
#include "src/race/race_report.h"

namespace perfbench {

struct Workload {
  std::string name;
  cvm::DsmOptions options;  // Detection on; base runs switch it off.
  std::function<std::unique_ptr<cvm::ParallelApp>(uint64_t seed)> make_app;
  // Expected race reports per base symbol (first_epoch is not compared).
  std::vector<cvm::RaceSummaryLine> expected_races;
  // What repeats exactly from run to run of one seed, so that a traced run
  // must reproduce it: message/byte/fault/access counts, and simulated time.
  // False where the program still lets host thread scheduling reach them.
  bool counts_repeat = true;
  bool sim_time_repeats = true;
};

const std::vector<std::string>& WorkloadNames();

// nullopt for an unknown name. `smoke` shrinks the inputs to a fraction of
// a second per run while keeping each workload's shape and fingerprint.
std::optional<Workload> MakeWorkload(const std::string& name, bool smoke);

enum class RunMode { kDetect, kBase, kTraced };

// Host seconds of each lifecycle phase of one run.
struct RunTimes {
  double construct_s = 0;  // DsmSystem constructor.
  double setup_s = 0;      // App construction + Setup (which does the Allocs).
  double run_s = 0;        // DsmSystem::Run.
  double verify_s = 0;     // ParallelApp::Verify.
  double teardown_s = 0;   // Destroying the system and the app.
};

struct RunRecord {
  RunMode mode = RunMode::kDetect;
  cvm::RunResult result;
  RunTimes times;
  bool verified = false;
  // Traced runs only: what the tracer and registry held before teardown.
  std::vector<cvm::obs::TraceEvent> events;
  std::vector<Span1D> app_bodies;  // Per node, tracer wall clock (ns).
  uint64_t trace_dropped = 0;
  std::map<std::string, uint64_t> counters;  // Registry counters the benchmark reports.
  std::vector<uint64_t> latency_buckets;  // net.msg_latency_ns histogram.
};

RunRecord RunOnce(const Workload& workload, uint64_t seed, RunMode mode);

// True when `got` has exactly the symbols and per-kind counts of `want`.
bool FingerprintMatches(const std::vector<cvm::RaceSummaryLine>& got,
                        const std::vector<cvm::RaceSummaryLine>& want);

// The correctness gate. Returns "" when the run passes, else why it failed.
std::string CheckRun(const Workload& workload, const RunRecord& run);

// A traced run against the untraced run of the same seed: whatever the
// workload says repeats must be equal. Returns "" when they agree.
std::string CheckTracedMatches(const Workload& workload, const RunRecord& untraced,
                               const RunRecord& traced);

}  // namespace perfbench

#endif  // CVM_PERFBENCH_WORKLOADS_H_
