#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/apps/app_catalog.h"
#include "src/apps/sor.h"

namespace perfbench {
namespace {

// bench/bench_util.h's PaperOptions: the paper's 8-node configuration.
constexpr int kNodes = 8;
constexpr uint64_t kPageSize = 4096;
constexpr int kPaperLocks = 64;

// Water's lock layout (src/apps/water.h): locks 0-7 are fixed, then one lock
// per chunk of 8 molecules. Sizing num_locks from the molecule count keeps
// larger inputs from tripping Node::Lock's bound check.
constexpr int kWaterFixedLocks = 8;
constexpr int kWaterMoleculesPerLock = 8;
// The catalog runs Water for 3 iterations; each iteration every node adds to
// the virial once without its lock, so every node pair races once per
// iteration, once as write-write and once as read-write.
constexpr uint64_t kWaterIters = 3;

// Traced runs: rings are drained at every barrier, and this holds the
// busiest node's events between two barriers on every workload here.
constexpr size_t kTraceRingCapacity = size_t{1} << 15;

// The app seed for a benchmark seed. The catalog reads 0 as "app default".
uint64_t AppSeed(uint64_t seed) { return seed + 1; }

cvm::DsmOptions PaperOptions() {
  cvm::DsmOptions options;
  options.num_nodes = kNodes;
  options.page_size = kPageSize;
  options.max_shared_bytes = 32ull << 20;
  options.num_locks = kPaperLocks;
  return options;
}

std::unique_ptr<cvm::ParallelApp> CatalogApp(const std::string& app, int64_t size,
                                             uint64_t seed) {
  cvm::CatalogRequest request;
  request.app = app;
  request.size = size;
  request.seed = AppSeed(seed);
  request.page_size = kPageSize;
  return cvm::MakeCatalogApp(request);
}

Workload SorAccess(bool smoke) {
  // Barrier-only, page-disjoint rows: host time goes to the access shim and
  // page faults; locks and the detector stay idle (no races).
  Workload w;
  w.name = "sor-access";
  w.options = PaperOptions();
  const int size = smoke ? 64 : 1024;
  w.make_app = [size](uint64_t) {
    cvm::SorApp::Params params;
    params.rows = size + 2;
    params.cols = size;
    params.iters = 4;
    params.page_size = kPageSize;
    return std::make_unique<cvm::SorApp>(params);
  };
  return w;
}

Workload WaterLocks(bool smoke) {
  // Per-chunk locks and single-writer ownership ping-pong: lock, protocol
  // and network layers with few accesses per message, and the serial + flat
  // detector reporting the real virial race.
  Workload w;
  w.name = "water-locks";
  w.options = PaperOptions();
  const int molecules = smoke ? 64 : 343;
  const int chunks = (molecules + kWaterMoleculesPerLock - 1) / kWaterMoleculesPerLock;
  w.options.num_locks = std::max(kPaperLocks, kWaterFixedLocks + chunks);
  w.make_app = [molecules](uint64_t seed) { return CatalogApp("water", molecules, seed); };
  const uint64_t per_kind = kWaterIters * kNodes * (kNodes - 1) / 2;
  w.expected_races = {cvm::RaceSummaryLine{"water_virial", per_kind, per_kind, -1}};
  w.counts_repeat = false;
  w.sim_time_repeats = false;
  return w;
}

Workload LuTree(bool smoke) {
  // The tree + distributed detection shape: multi-writer diffs and twins,
  // combine-tree claims and remote compares, no locks and no races.
  Workload w;
  w.name = "lu-tree";
  w.options = PaperOptions();
  w.options.protocol = cvm::ProtocolKind::kMultiWriterHomeLrc;
  w.options.barrier_tree = true;
  w.options.barrier_fanout = 2;
  w.options.detection_pipeline = cvm::DetectionPipeline::kDistributed;
  w.options.compress_bitmaps = true;
  w.options.detect_batch = 4;
  // Pinned: 0 would read hardware_concurrency(), and the modeled detect
  // time would follow the host's core count.
  w.options.detect_shards = 4;
  const int n = smoke ? 64 : 256;
  w.make_app = [n](uint64_t seed) { return CatalogApp("lu", n, seed); };
  // Remote compares charge node clocks in host order, so simulated time
  // varies by about 0.1% run to run; counts and bytes repeat exactly.
  w.sim_time_repeats = false;
  return w;
}

// Counters read from the metrics registry of a traced run.
const std::vector<std::string>& RegistryCounterNames() {
  static const std::vector<std::string> kNames = {
      "dsm.page_fetches",       "dsm.locks_acquired",
      "mem.twins_created",      "mem.diffs_created",
      "mem.diff_words_applied", "net.barrier.tree.up_bytes",
      "net.barrier.tree.down_bytes", "net.barrier.tree.fragments",
      "race.check_pairs",       "race.checklist_entries",
      "race.bitmap_pairs_compared", "race.remote.pairs_compared",
      "net.bitmap.bytes_raw",   "net.bitmap.bytes_wire",
  };
  return kNames;
}

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"sor-access", "water-locks", "lu-tree"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, bool smoke) {
  if (name == "sor-access") {
    return SorAccess(smoke);
  }
  if (name == "water-locks") {
    return WaterLocks(smoke);
  }
  if (name == "lu-tree") {
    return LuTree(smoke);
  }
  return std::nullopt;
}

RunRecord RunOnce(const Workload& workload, uint64_t seed, RunMode mode) {
  cvm::DsmOptions options = workload.options;
  if (mode == RunMode::kBase) {
    options.race_detection = false;
  }
  if (mode == RunMode::kTraced) {
    options.trace.trace_enabled = true;
    options.trace.metrics_enabled = true;
    // Flow events add context bytes to every message; without them the
    // traced run's simulated clock is the untraced one's.
    options.trace.flow_events = false;
    options.trace.ring_capacity = kTraceRingCapacity;
  }

  RunRecord run;
  run.mode = mode;
  const Clock::time_point t0 = Clock::now();
  auto system = std::make_unique<cvm::DsmSystem>(options);
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<cvm::ParallelApp> app = workload.make_app(seed);
  app->Setup(*system);
  const Clock::time_point t2 = Clock::now();

  cvm::obs::Tracer* tracer = system->tracer();
  std::vector<Span1D> bodies(static_cast<size_t>(options.num_nodes));
  run.result = system->Run([&](cvm::NodeContext& ctx) {
    const double begin = tracer != nullptr ? static_cast<double>(tracer->WallNowNs()) : 0;
    app->Run(ctx);
    if (tracer != nullptr) {
      bodies[static_cast<size_t>(ctx.id())] = {begin, static_cast<double>(tracer->WallNowNs())};
    }
  });
  const Clock::time_point t3 = Clock::now();
  run.verified = app->Verify();
  const Clock::time_point t4 = Clock::now();

  if (tracer != nullptr) {
    run.events = tracer->Collected();
    run.trace_dropped = tracer->TotalDropped();
    run.app_bodies = std::move(bodies);
  }
  if (cvm::obs::MetricsRegistry* metrics = system->metrics(); metrics != nullptr) {
    for (const std::string& name : RegistryCounterNames()) {
      run.counters[name] = metrics->counter(name)->value();
    }
    const cvm::obs::Histogram* latency = metrics->histogram("net.msg_latency_ns");
    for (int b = 0; b < cvm::obs::Histogram::kNumBuckets; ++b) {
      run.latency_buckets.push_back(latency->bucket(b));
    }
  }

  const Clock::time_point t5 = Clock::now();
  system.reset();
  app.reset();
  const Clock::time_point t6 = Clock::now();

  run.times.construct_s = Seconds(t0, t1);
  run.times.setup_s = Seconds(t1, t2);
  run.times.run_s = Seconds(t2, t3);
  run.times.verify_s = Seconds(t3, t4);
  run.times.teardown_s = Seconds(t5, t6);
  return run;
}

bool FingerprintMatches(const std::vector<cvm::RaceSummaryLine>& got,
                        const std::vector<cvm::RaceSummaryLine>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (const cvm::RaceSummaryLine& w : want) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const cvm::RaceSummaryLine& g) {
      return g.symbol == w.symbol;
    });
    if (it == got.end() || it->write_write != w.write_write || it->read_write != w.read_write) {
      return false;
    }
  }
  return true;
}

std::string CheckRun(const Workload& workload, const RunRecord& run) {
  std::ostringstream why;
  if (!run.verified) {
    why << "Verify() returned false; ";
  }
  if (run.result.dispatch_unhandled != 0) {
    why << run.result.dispatch_unhandled << " messages had no dispatch handler; ";
  }
  if (run.result.recovery.crashed) {
    why << "a node crashed; ";
  }
  const std::vector<cvm::RaceSummaryLine> want =
      run.mode == RunMode::kBase ? std::vector<cvm::RaceSummaryLine>{} : workload.expected_races;
  const std::vector<cvm::RaceSummaryLine> got = cvm::SummarizeRaces(run.result.races);
  if (!FingerprintMatches(got, want)) {
    why << "race reports [";
    for (const cvm::RaceSummaryLine& line : got) {
      why << " " << line.symbol << ":ww=" << line.write_write << ",rw=" << line.read_write;
    }
    why << " ] do not match the expected fingerprint; ";
  }
  if (run.trace_dropped != 0) {
    why << run.trace_dropped << " trace events dropped; ";
  }
  return why.str();
}

std::string CheckTracedMatches(const Workload& workload, const RunRecord& untraced,
                               const RunRecord& traced) {
  const cvm::RunResult& a = untraced.result;
  const cvm::RunResult& b = traced.result;
  std::ostringstream why;
  if (a.races.size() != b.races.size()) {
    why << "race reports " << a.races.size() << " vs " << b.races.size() << "; ";
  }
  if (workload.counts_repeat) {
    if (a.net.bytes_by_kind != b.net.bytes_by_kind ||
        a.net.messages_by_kind != b.net.messages_by_kind) {
      why << "per-kind traffic differs (" << a.net.bytes << " vs " << b.net.bytes << " bytes); ";
    }
    if (a.page_faults != b.page_faults) {
      why << "page faults " << a.page_faults << " vs " << b.page_faults << "; ";
    }
    if (a.access.shared_accesses != b.access.shared_accesses ||
        a.access.private_accesses != b.access.private_accesses) {
      why << "instrumented access counts differ; ";
    }
  }
  if (workload.sim_time_repeats &&
      (a.sim_time_ns != b.sim_time_ns || a.overhead_ns != b.overhead_ns)) {
    why << "simulated time " << a.sim_time_ns << " vs " << b.sim_time_ns << " ns; ";
  }
  return why.str();
}

}  // namespace perfbench
