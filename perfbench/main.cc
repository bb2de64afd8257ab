// The benchmark program. One thread, closed loop, concurrency 1: for
// --seconds it repeats one iteration of the chosen workload, which is a
// detection-on run and a detection-off run (and, with --trace 1, a traced
// detection-on run), each on a freshly constructed DsmSystem. Every run goes
// through the correctness gate. Prints a table of every measured metric with
// its unit and clock, then one JSON line:
//   --trace 0: the end-to-end metrics, medians over the iterations;
//   --trace 1: the per-layer metrics, medians over the traced runs.
//
//   perfbench --workload sor-access --seed 1 --seconds 10 --trace 0
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace_split.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinIterations = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0 && args->seconds <= 120)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return !args->workload.empty();
}

// One metric as printed: name, unit, the clock it is read on, and its
// samples (one per iteration or traced run; one per process for a few).
struct Metric {
  std::string name;
  std::string unit;
  std::string clock;  // sim | host | - (a count or ratio)
  std::vector<double> samples;

  double value() const { return Median(samples); }
};

class MetricTable {
 public:
  // Appends one sample to `name`, creating it in first-seen order.
  void Add(const std::string& name, const std::string& unit, const std::string& clock,
           double sample) {
    auto [it, inserted] = index_.try_emplace(name, metrics_.size());
    if (inserted) {
      metrics_.push_back(Metric{name, unit, clock, {}});
    }
    metrics_[it->second].samples.push_back(sample);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, size_t> index_;
};

// Every per-layer value of one traced run.
void AddLayerSamples(const RunRecord& run, MetricTable* t) {
  const cvm::RunResult& r = run.result;
  const LayerSplit split = SplitTrace(run.events, run.app_bodies);
  auto counter = [&run](const char* name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto bucket_ms = [&r](cvm::Bucket b) { return r.overhead_ns[static_cast<int>(b)] / 1e6; };
  const double accesses =
      static_cast<double>(r.access.shared_accesses + r.access.private_accesses);

  t->Add("instr.shared_accesses", "count", "-", static_cast<double>(r.access.shared_accesses));
  t->Add("instr.private_accesses", "count", "-",
         static_cast<double>(r.access.private_accesses));
  t->Add("instr.proc_call_sim_ms", "sim-ms", "sim", bucket_ms(cvm::Bucket::kProcCall));
  t->Add("instr.access_check_sim_ms", "sim-ms", "sim", bucket_ms(cvm::Bucket::kAccessCheck));
  t->Add("instr.host_self_ms", "ms", "host", split.instr_self_host_ms);
  t->Add("instr.host_self_ns_per_access", "ns", "host",
         accesses > 0 ? split.instr_self_host_ms * 1e6 / accesses : 0);

  t->Add("mem.page_faults", "count", "-", static_cast<double>(r.page_faults));
  t->Add("mem.page_fetches", "count", "-", counter("dsm.page_fetches"));
  t->Add("mem.twins_created", "count", "-", counter("mem.twins_created"));
  t->Add("mem.diffs_created", "count", "-", counter("mem.diffs_created"));
  t->Add("mem.diff_words_applied", "count", "-", counter("mem.diff_words_applied"));
  t->Add("protocol.cvm_mods_sim_ms", "sim-ms", "sim", bucket_ms(cvm::Bucket::kCvmMods));
  t->Add("mem.fault_host_ms", "ms", "host", split.fault_self_host_ms);
  t->Add("mem.fetch_host_ms", "ms", "host", split.fetch_host_ms);
  t->Add("protocol.diff_flush_host_ms", "ms", "host", split.diff_flush_host_ms);

  t->Add("net.messages", "count", "-", static_cast<double>(r.net.messages));
  t->Add("net.bytes", "B", "sim", static_cast<double>(r.net.bytes));
  t->Add("net.read_notice_bytes", "B", "sim", static_cast<double>(r.net.read_notice_bytes));
  for (const char* kind : {"PageRequest", "PageReply", "LockRequest", "LockGrant",
                           "BarrierArrive", "BarrierRelease", "BitmapRequest", "BitmapReply"}) {
    const auto it = r.net.bytes_by_kind.find(kind);
    t->Add(std::string("net.bytes.") + kind, "B", "sim",
           it == r.net.bytes_by_kind.end() ? 0.0 : static_cast<double>(it->second));
  }
  t->Add("net.msg_latency_host_us.p50", "us", "host",
         Log2HistogramQuantile(run.latency_buckets, 0.50) / 1e3);
  t->Add("net.msg_latency_host_us.p99", "us", "host",
         Log2HistogramQuantile(run.latency_buckets, 0.99) / 1e3);

  t->Add("dsm.lock.acquires", "count", "-", counter("dsm.locks_acquired"));
  t->Add("dsm.lock.acquire_host_ms", "ms", "host", split.lock_acquire_host_ms);
  t->Add("dsm.lock.acquire_sim_ms", "sim-ms", "sim", split.lock_acquire_sim_ms);

  t->Add("dsm.barrier.epochs", "count", "-", static_cast<double>(r.barriers));
  t->Add("dsm.barrier.tree.up_bytes", "B", "sim", counter("net.barrier.tree.up_bytes"));
  t->Add("dsm.barrier.tree.down_bytes", "B", "sim", counter("net.barrier.tree.down_bytes"));
  t->Add("dsm.barrier.tree.fragments", "count", "-", counter("net.barrier.tree.fragments"));
  t->Add("dsm.barrier.host_ms", "ms", "host", split.barrier_self_host_ms);
  t->Add("dsm.barrier.sim_ms", "sim-ms", "sim", split.barrier_self_sim_ms);

  // Intervals counted where they are created; the overlap count is the
  // master detector's, which the tree barrier's claims do not feed.
  const double intervals = static_cast<double>(r.intervals_total);
  const double in_overlap = static_cast<double>(r.detector.intervals_in_overlap);
  const double checklist = counter("race.checklist_entries");
  const double recorded = static_cast<double>(r.bitmap_pairs_recorded);
  t->Add("race.intervals_total", "count", "-", intervals);
  t->Add("race.intervals_in_overlap", "count", "-", in_overlap);
  t->Add("race.check_pairs", "count", "-", counter("race.check_pairs"));
  t->Add("race.checklist_entries", "count", "-", checklist);
  t->Add("race.bitmap_pairs_compared", "count", "-", counter("race.bitmap_pairs_compared"));
  t->Add("race.reports", "count", "-", static_cast<double>(r.races.size()));
  t->Add("race.remote.pairs_compared", "count", "-", counter("race.remote.pairs_compared"));
  t->Add("race.bitmap.bytes_raw", "B", "sim", counter("net.bitmap.bytes_raw"));
  t->Add("race.bitmap.bytes_wire", "B", "sim", counter("net.bitmap.bytes_wire"));
  t->Add("race.intervals_sim_ms", "sim-ms", "sim", bucket_ms(cvm::Bucket::kIntervals));
  t->Add("race.bitmaps_sim_ms", "sim-ms", "sim", bucket_ms(cvm::Bucket::kBitmaps));
  t->Add("race.detect_host_ms", "ms", "host", split.detect_host_ms);
  t->Add("race.intervals_used", "ratio", "-", intervals > 0 ? in_overlap / intervals : 0);
  t->Add("race.bitmaps_used", "ratio", "-", recorded > 0 ? checklist / recorded : 0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Median plus the highest percentile that has at least ten samples beyond
// it, when there are enough samples for one.
std::string Describe(const Metric& m) {
  char text[160];
  const size_t n = m.samples.size();
  if (n <= 1) {
    return "";
  }
  const int pct = static_cast<int>(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
  if (pct > 50) {
    std::snprintf(text, sizeof(text), "n=%zu p%d=%.6g", n, pct,
                  Quantile(m.samples, pct / 100.0));
  } else {
    std::snprintf(text, sizeof(text), "n=%zu", n);
  }
  return text;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-7s %-5s %s\n", m.name.c_str(), m.value(), m.unit.c_str(),
                m.clock.c_str(), Describe(m).c_str());
  }
}

void PrintJson(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value(), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  const std::optional<Workload> workload = MakeWorkload(args.workload, /*smoke=*/false);
  if (!workload.has_value()) {
    return Usage();
  }

  int attempted = 0;
  int failed = 0;
  // A failed run keeps its samples; it is reported here and counted.
  auto gate = [&](const RunRecord& run, const std::string& extra) {
    ++attempted;
    const std::string why = CheckRun(*workload, run) + extra;
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "FAILED run %d: %s\n", attempted, why.c_str());
    }
  };

  MetricTable e2e;
  MetricTable layers;
  std::vector<double> detect_sim_ms;
  std::vector<double> detect_run_s;
  std::vector<double> traced_run_s;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int iter = 0; iter < kMinIterations || Clock::now() < deadline; ++iter) {
    const RunRecord detect = RunOnce(*workload, args.seed, RunMode::kDetect);
    gate(detect, "");
    if (iter == 0) {
      // The peak over the whole loop is the rarest interleaving's peak, so
      // it grows with the run length; one detect run's peak does not.
      e2e.Add("peak_rss_mb", "MB", "host", PeakRssMb());
    }
    const RunRecord base = RunOnce(*workload, args.seed, RunMode::kBase);
    gate(base, "");

    const cvm::RunResult& r = detect.result;
    const double sim_ms = r.sim_time_ns / 1e6;
    const double accesses =
        static_cast<double>(r.access.shared_accesses + r.access.private_accesses);
    detect_sim_ms.push_back(sim_ms);
    detect_run_s.push_back(detect.times.run_s);
    e2e.Add("sim_ms", "sim-ms", "sim", sim_ms);
    e2e.Add("slowdown", "x", "sim",
            base.result.sim_time_ns > 0 ? r.sim_time_ns / base.result.sim_time_ns : 0);
    e2e.Add("wire_mb", "MB", "sim", static_cast<double>(r.net.bytes) / 1e6);
    e2e.Add("wall_s", "s", "host", detect.times.run_s);
    e2e.Add("host_ns_per_access", "ns", "host",
            accesses > 0 ? detect.times.run_s * 1e9 / accesses : 0);
    e2e.Add("setup_s", "s", "host", detect.times.construct_s + detect.times.setup_s);

    layers.Add("dsm.construct_ms", "ms", "host", detect.times.construct_s * 1e3);
    layers.Add("dsm.setup_ms", "ms", "host", detect.times.setup_s * 1e3);
    layers.Add("dsm.run_ms", "ms", "host", detect.times.run_s * 1e3);
    layers.Add("dsm.verify_ms", "ms", "host", detect.times.verify_s * 1e3);
    layers.Add("dsm.teardown_ms", "ms", "host", detect.times.teardown_s * 1e3);

    if (args.trace) {
      const RunRecord traced = RunOnce(*workload, args.seed, RunMode::kTraced);
      gate(traced, CheckTracedMatches(*workload, detect, traced));
      traced_run_s.push_back(traced.times.run_s);
      AddLayerSamples(traced, &layers);
      layers.Add("obs.trace_dropped", "count", "-", static_cast<double>(traced.trace_dropped));
    }
  }
  layers.Add("dsm.sim_ms_range_pct", "%", "sim", RangePct(detect_sim_ms));
  if (args.trace) {
    layers.Add("obs.trace_overhead_ratio", "x", "host",
               Median(traced_run_s) / Median(detect_run_s));
  }

  std::printf("workload %s, seed %llu, %zu iterations, %d runs, %d failed\n",
              workload->name.c_str(), static_cast<unsigned long long>(args.seed),
              detect_sim_ms.size(), attempted, failed);
  PrintTable("end-to-end (medians over iterations):", e2e.metrics());
  if (args.trace) {
    PrintTable("per-layer (medians over traced runs; dsm.* over untraced runs):",
               layers.metrics());
  }
  PrintJson(failed == 0, attempted, failed, args.trace ? layers.metrics() : e2e.metrics());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
