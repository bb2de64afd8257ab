// cvm_run: the command-line driver a user of this library reaches for first.
// Runs any of the bundled applications on the DSM with race detection and
// prints the findings; exposes every §6.x mode as a flag.
//
// Examples:
//   cvm_run --app=tsp --nodes=8
//   cvm_run --app=water --fix-bug --protocol=multi
//   cvm_run --app=sor --compare            # base-vs-instrumented slowdown
//   cvm_run --app=tsp --record=sched.txt   # run 1 of the §6.1 workflow
//   cvm_run --app=tsp --replay=sched.txt --watch=0x40 --watch-epoch=1
//   cvm_run --app=fft --postmortem --trace-out=run.cvmt
//   cvm_run --trace-in=run.cvmt            # offline analysis only
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/apps/app_catalog.h"
#include "src/apps/workload.h"
#include "src/fault/fault.h"
#include "src/common/table.h"
#include "src/race/trace_io.h"
#include "tools/flags.h"

namespace {

using namespace cvm;

int Usage() {
  std::printf(
      "usage: cvm_run --app={fft|sor|tsp|water|lu} [options]\n"
      "       cvm_run --trace-in=FILE [--pages=N]\n"
      "\n"
      "options:\n"
      "  --nodes=N            processors (default 8)\n"
      "  --page-size=BYTES    DSM page size (default 4096)\n"
      "  --protocol=P         lazy | multi | eager (default lazy)\n"
      "  --size=N             app problem size (app-specific scale knob)\n"
      "  --no-detect          run without race detection\n"
      "  --pipeline=P         serial | distributed barrier-time check\n"
      "                       (docs/DETECTOR.md; default serial)\n"
      "  --detect-batch=N     run the bitmap/compare rounds once per N epochs\n"
      "                       instead of every barrier (default 1 = unbatched)\n"
      "  --barrier-tree       k-ary combine-tree barrier with in-tree check-list\n"
      "                       aggregation (docs/ARCHITECTURE.md; default: flat)\n"
      "  --barrier-fanout=K   combine-tree fanout, 1 <= K <= nodes (default 4)\n"
      "  --compress-bitmaps   sparse/run-length encode bitmap-round payloads\n"
      "  --diff-writes        §6.5: mine writes from diffs (implies --protocol=multi)\n"
      "  --first-races        §6.4: report only the earliest racy epoch\n"
      "  --fix-bug            water only: repaired virial update\n"
      "  --compare            also run uninstrumented and report the slowdown\n"
      "  --record=FILE        record the lock-grant schedule (§6.1 run 1)\n"
      "  --replay=FILE        replay a recorded schedule (§6.1 run 2)\n"
      "  --watch=ADDR         watchpoint address (with --replay)\n"
      "  --watch-epoch=E      restrict the watchpoint to one epoch\n"
      "  --postmortem         §7: trace instead of discarding checked epochs\n"
      "  --trace-out=FILE     write the post-mortem trace file\n"
      "  --trace-in=FILE      analyze an existing trace file (no run)\n"
      "  --full-report        print every race with its causal provenance\n"
      "                       (default: per-variable summary)\n"
      "  --races-json=FILE    write race reports + provenance as JSON\n"
      "                       (read back with trace_summary --race-explain)\n"
      "  --seed=N             workload seed (tsp/water/lu inputs; also the\n"
      "                       default fault seed); 0 = per-app defaults\n"
      "\n"
      "fault injection (docs/FAULTS.md):\n"
      "  --fault-profile=P    off | lossy | bursty | partition | stress | crash\n"
      "  --fault-seed=N       injection schedule seed (default: --seed, else 1)\n"
      "  --fault-drop=P       override the profile's random frame-loss rate\n"
      "  --fault-max-attempts=N  per-send retransmission budget before the peer\n"
      "                       is declared unreachable (default 512, N >= 1)\n"
      "  --fault-crash-epoch=E  fail-stop a node at barrier epoch E (arms the\n"
      "                       crash machinery on any profile)\n"
      "  --fault-crash-node=N crash victim (default: seed-derived)\n"
      "  --fault-crash-reboot mark the crash transient (service retries run\n"
      "                       with the crash disarmed)\n"
      "\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --trace-json=FILE    write a Chrome/Perfetto trace-event JSON of the run\n"
      "  --metrics-out=FILE   write per-epoch metrics (CSV, or JSON if FILE ends .json)\n"
      "  --metrics-interval=N snapshot metrics every N barrier epochs (default 1)\n"
      "  --trace-sample=F     sampling fraction in (0, 1]: keep about F of the\n"
      "                       trace events per node (default 1 = keep all)\n");
  return 2;
}

// Strict double parse: the whole string must be a number. Returns false on
// trailing junk ("0.1x") or an empty value.
bool ParseDoubleStrict(const std::string& raw, double* out) {
  char* end = nullptr;
  *out = std::strtod(raw.c_str(), &end);
  return end != raw.c_str() && *end == '\0';
}

void PrintRaces(const std::vector<RaceReport>& races, bool full) {
  if (races.empty()) {
    std::printf("no data races detected\n");
    return;
  }
  std::printf("%zu data race(s) detected\n", races.size());
  if (full) {
    for (const RaceReport& race : races) {
      std::printf("  %s\n", race.ToString().c_str());
      std::printf("%s", FormatProvenance(race).c_str());
    }
    return;
  }
  TablePrinter table({"Variable", "write-write", "read-write", "First epoch"});
  for (const RaceSummaryLine& line : SummarizeRaces(races)) {
    table.AddRow({line.symbol, std::to_string(line.write_write),
                  std::to_string(line.read_write), std::to_string(line.first_epoch)});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return Usage();
  }
  const std::vector<std::string> accepted = {
      "app",     "nodes",  "page-size",   "protocol",  "size",        "detect",
      "pipeline", "detect-batch", "barrier-tree", "barrier-fanout", "compress-bitmaps",
      "diff-writes", "first-races", "fix-bug", "compare", "record",  "replay",
      "watch",   "watch-epoch", "postmortem", "trace-out", "trace-in", "full-report", "pages",
      "races-json", "trace-json", "metrics-out", "metrics-interval", "trace-sample",
      "seed", "fault-profile", "fault-seed", "fault-drop", "fault-max-attempts",
      "fault-crash-epoch", "fault-crash-node", "fault-crash-reboot",
      "help"};
  for (const std::string& key : flags.UnknownKeys(accepted)) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return Usage();
  }
  if (flags.GetBool("help", false)) {
    return Usage();
  }

  // Offline trace analysis needs no run at all.
  if (flags.Has("trace-in")) {
    PostMortemTrace trace;
    if (!ReadTraceFile(flags.GetString("trace-in", ""), &trace)) {
      std::fprintf(stderr, "error: cannot read trace file\n");
      return 1;
    }
    std::printf("trace: %zu interval records, %zu bitmap pairs, %zu bytes\n",
                trace.NumRecords(), trace.NumBitmapPairs(), trace.TraceBytes());
    const auto analysis = trace.Analyze(static_cast<int>(flags.GetInt("pages", 8192)));
    PrintRaces(analysis.races, flags.GetBool("full-report", false));
    return 0;
  }

  const std::string app_name = flags.GetString("app", "");
  DsmOptions options;
  options.num_nodes = static_cast<int>(flags.GetInt("nodes", 8));
  if (options.num_nodes < 1) {
    std::fprintf(stderr, "error: --nodes=%d must be at least 1\n", options.num_nodes);
    return Usage();
  }
  const int64_t page_size = flags.GetInt("page-size", 4096);
  if (page_size < 64 || (page_size & (page_size - 1)) != 0) {
    std::fprintf(stderr, "error: --page-size=%lld must be a power of two, at least 64\n",
                 static_cast<long long>(page_size));
    return Usage();
  }
  options.page_size = static_cast<uint64_t>(page_size);
  options.max_shared_bytes = 64ull << 20;
  options.race_detection = flags.GetBool("detect", true);
  options.first_races_only = flags.GetBool("first-races", false);
  const std::string pipeline = flags.GetString("pipeline", "serial");
  if (pipeline == "serial") {
    options.detection_pipeline = DetectionPipeline::kSerial;
  } else if (pipeline == "distributed") {
    options.detection_pipeline = DetectionPipeline::kDistributed;
  } else {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", pipeline.c_str());
    return Usage();
  }
  const int64_t detect_batch = flags.GetInt("detect-batch", 1);
  if (detect_batch < 1) {
    std::fprintf(stderr, "error: --detect-batch=%lld must be at least 1 (1 = unbatched)\n",
                 static_cast<long long>(detect_batch));
    return Usage();
  }
  options.detect_batch = static_cast<int>(detect_batch);
  options.barrier_tree = flags.GetBool("barrier-tree", false);
  // The default fanout (4) is always legal — a fanout above the node count
  // just degenerates to a one-level star — but an explicit value outside
  // [1, nodes] is a typo, not a topology.
  const int64_t fanout = flags.GetInt("barrier-fanout", 4);
  if (flags.Has("barrier-fanout") && (fanout < 1 || fanout > options.num_nodes)) {
    std::fprintf(stderr, "error: --barrier-fanout=%lld must be in [1, --nodes=%d]\n",
                 static_cast<long long>(fanout), options.num_nodes);
    return Usage();
  }
  options.barrier_fanout = static_cast<int>(fanout);
  options.compress_bitmaps = flags.GetBool("compress-bitmaps", false);
  options.postmortem_trace = flags.GetBool("postmortem", false);

  options.trace.trace_enabled = flags.Has("trace-json");
  options.trace.metrics_enabled = flags.Has("metrics-out");
  options.trace.metrics_interval = static_cast<int>(flags.GetInt("metrics-interval", 1));
  if (options.trace.metrics_interval < 1) {
    std::fprintf(stderr, "error: --metrics-interval=%d must be at least 1\n",
                 options.trace.metrics_interval);
    return Usage();
  }
  if (flags.Has("trace-sample")) {
    // A fraction, not a period: values outside (0, 1] used to slip through
    // and silently trace nothing (or abort deep in the tracer); reject them
    // here with an actionable message.
    const std::string raw = flags.GetString("trace-sample", "1");
    char* end = nullptr;
    const double fraction = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0' || !(fraction > 0.0) || fraction > 1.0) {
      std::fprintf(stderr,
                   "error: --trace-sample=%s is not a sampling fraction in (0, 1] "
                   "(1 keeps every event, 0.1 keeps about 1 in 10)\n",
                   raw.c_str());
      return Usage();
    }
    options.trace.sample_period =
        static_cast<uint32_t>(std::max<long long>(1, std::llround(1.0 / fraction)));
  }
  if (options.trace.enabled() && !obs::kObsCompiledIn) {
    std::fprintf(stderr,
                 "error: this binary was built with -DCVM_OBS=OFF; "
                 "--trace-json/--metrics-out are unavailable\n");
    return 1;
  }

  const std::string protocol = flags.GetString("protocol", "lazy");
  if (protocol == "lazy") {
    options.protocol = ProtocolKind::kSingleWriterLrc;
  } else if (protocol == "multi") {
    options.protocol = ProtocolKind::kMultiWriterHomeLrc;
  } else if (protocol == "eager") {
    options.protocol = ProtocolKind::kEagerRcInvalidate;
  } else {
    std::fprintf(stderr, "error: unknown protocol '%s'\n", protocol.c_str());
    return Usage();
  }
  if (flags.GetBool("diff-writes", false)) {
    options.protocol = ProtocolKind::kMultiWriterHomeLrc;
    options.write_detection = WriteDetection::kDiffs;
  }
  options.record_sync_order = flags.Has("record");
  SyncSchedule replay_schedule;
  if (flags.Has("replay")) {
    if (!ReadScheduleFile(flags.GetString("replay", ""), &replay_schedule)) {
      std::fprintf(stderr, "error: cannot read schedule file\n");
      return 1;
    }
    options.replay_schedule = &replay_schedule;
  }
  if (flags.Has("watch")) {
    Watchpoint watch;
    watch.addr = static_cast<GlobalAddr>(std::stoull(flags.GetString("watch", "0"), nullptr, 0));
    watch.epoch = static_cast<EpochId>(flags.GetInt("watch-epoch", -1));
    options.watch = watch;
  }

  // One top-level seed feeds both the app workloads and (by default) the
  // fault injector, so a whole faulty run reproduces from a single number.
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const uint64_t fault_seed =
      static_cast<uint64_t>(flags.GetInt("fault-seed", seed != 0 ? static_cast<int64_t>(seed) : 1));
  const std::string profile_name = flags.GetString("fault-profile", "off");
  const auto profile = fault::ParseProfile(profile_name);
  if (!profile.has_value()) {
    std::fprintf(stderr, "error: unknown fault profile '%s' (valid: %s)\n",
                 profile_name.c_str(), fault::ValidProfileNames());
    return Usage();
  }
  options.fault_plan = fault::FaultPlan::FromProfile(*profile, fault_seed);
  if (flags.Has("fault-drop")) {
    const std::string raw = flags.GetString("fault-drop", "0");
    double drop = 0;
    if (!ParseDoubleStrict(raw, &drop) || drop < 0.0 || drop > 1.0) {
      std::fprintf(stderr,
                   "error: --fault-drop=%s is not a frame-loss probability in [0, 1]\n",
                   raw.c_str());
      return Usage();
    }
    options.fault_plan.drop_prob = drop;
  }
  if (flags.Has("fault-max-attempts")) {
    const int64_t attempts = flags.GetInt("fault-max-attempts", 0);
    if (attempts < 1 || attempts > 1u << 20) {
      std::fprintf(stderr,
                   "error: --fault-max-attempts=%lld must be in [1, %u] "
                   "(the retransmission budget before a peer is declared unreachable)\n",
                   static_cast<long long>(attempts), 1u << 20);
      return Usage();
    }
    options.fault_plan.max_send_attempts = static_cast<uint32_t>(attempts);
  }
  if (flags.Has("fault-crash-epoch")) {
    const int64_t crash_epoch = flags.GetInt("fault-crash-epoch", -1);
    if (crash_epoch < 0) {
      std::fprintf(stderr, "error: --fault-crash-epoch=%lld must be a barrier epoch >= 0\n",
                   static_cast<long long>(crash_epoch));
      return Usage();
    }
    options.fault_plan.crash_epoch = static_cast<EpochId>(crash_epoch);
  }
  if (flags.Has("fault-crash-node")) {
    const int64_t crash_node = flags.GetInt("fault-crash-node", -1);
    if (crash_node < 0 || crash_node >= options.num_nodes) {
      std::fprintf(stderr, "error: --fault-crash-node=%lld must name a node in [0, %d)\n",
                   static_cast<long long>(crash_node), options.num_nodes);
      return Usage();
    }
    if (!options.fault_plan.crash_enabled()) {
      std::fprintf(stderr,
                   "error: --fault-crash-node needs an armed crash "
                   "(--fault-profile=crash or --fault-crash-epoch=E)\n");
      return Usage();
    }
    options.fault_plan.crash_node = static_cast<NodeId>(crash_node);
  }
  options.fault_plan.crash_reboot = flags.GetBool("fault-crash-reboot", false);

  CatalogRequest catalog;
  catalog.app = app_name;
  catalog.size = flags.GetInt("size", -1);
  catalog.seed = seed;
  catalog.page_size = options.page_size;
  catalog.fix_water_bug = flags.GetBool("fix-bug", false);
  auto app = MakeCatalogApp(catalog);
  if (app == nullptr) {
    std::fprintf(stderr, "error: unknown or missing --app\n");
    return Usage();
  }
  options.num_locks = std::max(options.num_locks, CatalogLocksNeeded(catalog));

  std::printf("running %s (%s, %s sync) on %d nodes, protocol %s, detection %s\n",
              app->name().c_str(), app->input_description().c_str(),
              app->sync_description().c_str(), options.num_nodes, protocol.c_str(),
              options.race_detection ? "on" : "off");
  if (seed != 0) {
    std::printf("seed: %lu\n", static_cast<unsigned long>(seed));
  } else {
    std::printf("seed: app-default\n");
  }
  if (options.fault_plan.enabled()) {
    std::printf("faults: profile %s, seed %lu, drop %.4f\n",
                fault::ProfileName(options.fault_plan.profile),
                static_cast<unsigned long>(fault_seed), options.fault_plan.drop_prob);
    if (options.fault_plan.crash_enabled()) {
      std::printf("crash: node %s fail-stops at barrier epoch %d (%s)\n",
                  options.fault_plan.crash_node >= 0
                      ? std::to_string(options.fault_plan.crash_node).c_str()
                      : "(seed-derived)",
                  options.fault_plan.crash_epoch,
                  options.fault_plan.crash_reboot ? "transient; reboots on retry"
                                                  : "permanent");
    }
  }

  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });

  std::printf("result verified: %s\n", app->Verify() ? "yes" : "NO");
  PrintRaces(result.races, flags.GetBool("full-report", false));
  std::printf("\nrun stats: %.1f ms simulated, %lu intervals, %lu page faults, "
              "%lu messages (%.2f MB)\n",
              result.sim_time_ns / 1e6, static_cast<unsigned long>(result.intervals_total),
              static_cast<unsigned long>(result.page_faults),
              static_cast<unsigned long>(result.net.messages),
              static_cast<double>(result.net.bytes) / 1e6);
  if (options.fault_plan.enabled()) {
    std::printf("fault stats: %lu attempts, %lu drops, %lu retransmits, %lu dup-drops, "
                "%lu corrupt, %lu acks lost, %.1f ms backoff\n",
                static_cast<unsigned long>(result.fault.data_frames),
                static_cast<unsigned long>(result.fault.drops),
                static_cast<unsigned long>(result.fault.retransmits),
                static_cast<unsigned long>(result.fault.dup_dropped),
                static_cast<unsigned long>(result.fault.corrupted),
                static_cast<unsigned long>(result.fault.acks_dropped),
                result.fault.backoff_ns / 1e6);
  }
  if (result.recovery.crashed) {
    std::printf("crash outcome: node %d died at epoch %d; %zu node(s) rolled back to "
                "the consistent cut through epoch %d (%zu lock slots recovered, "
                "largest checkpoint %lu bytes); race reports cover the surviving "
                "prefix only\n",
                result.recovery.crash_node, result.recovery.crash_epoch,
                result.recovery.rollbacks, result.recovery.last_consistent_epoch,
                result.recovery.locks_recovered,
                static_cast<unsigned long>(result.recovery.checkpoint_bytes));
  }

  if (flags.Has("races-json")) {
    const std::string path = flags.GetString("races-json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write races JSON to %s\n", path.c_str());
      return 1;
    }
    const std::string json = RaceReportsToJson(result.races);
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "error: cannot write races JSON to %s\n", path.c_str());
      return 1;
    }
    std::printf("races JSON written: %s (%zu reports)\n", path.c_str(), result.races.size());
  }
  if (options.record_sync_order) {
    if (!WriteScheduleFile(result.recorded_schedule, flags.GetString("record", ""))) {
      std::fprintf(stderr, "error: cannot write schedule file\n");
      return 1;
    }
    std::printf("recorded %zu lock grants\n", result.recorded_schedule.TotalGrants());
  }
  if (!result.watch_hits.empty()) {
    std::printf("\nwatchpoint hits:\n");
    for (const WatchHit& hit : result.watch_hits) {
      std::printf("  %s\n", hit.ToString().c_str());
    }
  }
  if (options.trace.trace_enabled && system.tracer() != nullptr) {
    const std::string path = flags.GetString("trace-json", "");
    if (!system.tracer()->WriteChromeJson(path)) {
      std::fprintf(stderr, "error: cannot write trace JSON to %s\n", path.c_str());
      return 1;
    }
    std::printf("trace JSON written: %s (%lu events, %lu dropped)\n", path.c_str(),
                static_cast<unsigned long>(system.tracer()->TotalEmitted()),
                static_cast<unsigned long>(system.tracer()->TotalDropped()));
  }
  if (options.trace.metrics_enabled && system.metrics() != nullptr) {
    const std::string path = flags.GetString("metrics-out", "");
    const bool as_json =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    const bool ok = as_json ? system.metrics()->WriteJson(path)
                            : system.metrics()->WriteCsv(path);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
      return 1;
    }
    std::printf("metrics written: %s (%zu epoch rows)\n", path.c_str(),
                system.metrics()->NumRows());
  }
  if (options.postmortem_trace && flags.Has("trace-out")) {
    if (!WriteTraceFile(system.trace(), flags.GetString("trace-out", ""))) {
      std::fprintf(stderr, "error: cannot write trace file\n");
      return 1;
    }
    std::printf("trace written: %zu bytes\n", system.trace().TraceBytes());
  }

  if (flags.GetBool("compare", false)) {
    DsmOptions base_options = options;
    base_options.race_detection = false;
    base_options.record_sync_order = false;
    auto base_app = MakeCatalogApp(catalog);
    DsmSystem base_system(base_options);
    base_app->Setup(base_system);
    RunResult base = base_system.Run([&base_app](NodeContext& ctx) { base_app->Run(ctx); });
    std::printf("\nslowdown vs unaltered run: %.2fx (%.1f ms -> %.1f ms simulated)\n",
                base.sim_time_ns > 0 ? result.sim_time_ns / base.sim_time_ns : 0.0,
                base.sim_time_ns / 1e6, result.sim_time_ns / 1e6);
  }
  return 0;
}
