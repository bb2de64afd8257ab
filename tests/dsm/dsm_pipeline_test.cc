// End-to-end equivalence of the two detection pipelines (§4 step 5, §6.2):
// for a deterministic racy workload, the distributed pipeline must report
// exactly the races the serial paper pipeline reports — same kinds, same
// words, same interval pairs — under every consistency protocol, with and
// without bitmap compression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_catalog.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions SmallOptions(int nodes, ProtocolKind protocol) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 256;
  options.max_shared_bytes = 64 * 1024;
  options.protocol = protocol;
  return options;
}

// A deterministic barrier-phase workload with known W/W and R/W races plus
// false sharing that must NOT be reported: every node writes its own slot
// (false sharing on the page), everyone writes slot 0 (W/W), and node 1
// reads slot 2 which node 2 writes (R/W).
void RacyApp(NodeContext& ctx, SharedArray<int32_t>& data) {
  data.Set(ctx, ctx.id() + 8, ctx.id());  // Distinct words: false sharing.
  data.Set(ctx, 0, ctx.id());             // Same word: W/W race.
  if (ctx.id() == 1) {
    (void)data.Get(ctx, 2);  // Races with node 2's write below.
  }
  if (ctx.id() == 2) {
    data.Set(ctx, 2, 7);
  }
  ctx.Barrier();
  // A second epoch with no races: reads of data[0] ordered by the barrier.
  (void)data.Get(ctx, 0);
  ctx.Barrier();
}

// The canonical serialization the pipelines must agree on.
std::vector<std::string> ReportKey(const RunResult& result) {
  std::vector<std::string> key;
  key.reserve(result.races.size());
  for (const RaceReport& report : result.races) {
    key.push_back(report.ToString());
  }
  return key;
}

RunResult RunPipeline(ProtocolKind protocol, DetectionPipeline pipeline, bool compress) {
  DsmOptions options = SmallOptions(4, protocol);
  options.detection_pipeline = pipeline;
  options.compress_bitmaps = compress;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  return system.Run([&](NodeContext& ctx) { RacyApp(ctx, data); });
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PipelineEquivalenceTest, DistributedMatchesSerial) {
  const RunResult serial = RunPipeline(GetParam(), DetectionPipeline::kSerial, false);
  // The workload has known true races and cleared false sharing.
  EXPECT_FALSE(serial.races.empty());
  bool has_ww = false;
  for (const RaceReport& report : serial.races) {
    if (report.kind == RaceKind::kWriteWrite) {
      has_ww = true;
    }
    EXPECT_NE(report.word, 9u) << "per-node slots are false sharing, not races";
  }
  EXPECT_TRUE(has_ww);
  const auto expected = ReportKey(serial);

  for (const bool compress : {false, true}) {
    const RunResult result = RunPipeline(GetParam(), DetectionPipeline::kDistributed, compress);
    EXPECT_EQ(ReportKey(result), expected) << "compress " << compress;
    // Constituents actually did compare work on the master's behalf.
    EXPECT_GT(result.pipeline.remote_pairs_compared, 0u);
  }
}

TEST_P(PipelineEquivalenceTest, CompressionShrinksDistributedWireBytes) {
  const RunResult raw = RunPipeline(GetParam(), DetectionPipeline::kDistributed, false);
  const RunResult compressed = RunPipeline(GetParam(), DetectionPipeline::kDistributed, true);
  // Raw mode models the legacy full-page payloads; the codec must not be
  // larger and on these skewed bitmaps must strictly win.
  EXPECT_LT(compressed.pipeline.bitmap_bytes_wire, raw.pipeline.bitmap_bytes_wire);
  EXPECT_EQ(ReportKey(raw), ReportKey(compressed));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PipelineEquivalenceTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate));

// A contention-free two-epoch workload whose message pattern is fully
// deterministic under the home-based multi-writer protocol (no ownership
// migration, so no scheduling-dependent forwarding): epoch 0, every node
// writes its own home page (no traffic) plus a private word of one shared
// page (base-copy fetch from the home + diff flush back — and concurrent
// write overlap, so the barrier master runs a real bitmap round); epoch 1,
// every node reads its right neighbour's page. No locks, no races — so
// per-sender counts are reproducible, not just totals.
void NeighborReadApp(NodeContext& ctx, int num_nodes, uint64_t page_size) {
  const GlobalAddr own = static_cast<GlobalAddr>(ctx.id()) * page_size;
  ctx.Write<int32_t>(own, 100 + ctx.id());
  const GlobalAddr shared = static_cast<GlobalAddr>(num_nodes) * page_size +
                            static_cast<GlobalAddr>(ctx.id()) * kWordSize;
  ctx.Write<int32_t>(shared, 200 + ctx.id());  // False sharing, not a race.
  ctx.Barrier();
  const GlobalAddr neighbor =
      static_cast<GlobalAddr>((ctx.id() + 1) % num_nodes) * page_size;
  EXPECT_EQ(ctx.Read<int32_t>(neighbor), 100 + (ctx.id() + 1) % num_nodes);
  ctx.Barrier();
}

NetworkStats RunNeighborRead(DetectionPipeline pipeline) {
  DsmOptions options = SmallOptions(4, ProtocolKind::kMultiWriterHomeLrc);
  options.detection_pipeline = pipeline;
  DsmSystem system(options);
  // One page per node, plus the falsely-shared page.
  (void)system.Alloc("pages", (options.num_nodes + 1) * options.page_size, true);
  const RunResult result = system.Run([&](NodeContext& ctx) {
    NeighborReadApp(ctx, options.num_nodes, options.page_size);
  });
  EXPECT_TRUE(result.races.empty());
  // The falsely-shared page forces a real detection round to equate.
  EXPECT_GT(result.net.messages_by_kind.count("BitmapRequest") +
                result.net.messages_by_kind.count("CompareRequest"),
            0u);
  return result.net;
}

// Distributing the compare step changes only the detection round's traffic
// (CompareRequest/BitmapShip/CompareReply replace part of the bitmap
// retrieval); application and synchronization traffic per sender must not
// move.
TEST(PipelineWireEquivalenceTest, DistributedChangesOnlyDetectionTraffic) {
  const NetworkStats serial = RunNeighborRead(DetectionPipeline::kSerial);
  const NetworkStats distributed = RunNeighborRead(DetectionPipeline::kDistributed);
  const std::vector<std::string> detection_kinds = {
      "BitmapRequest", "BitmapReply", "CompareRequest", "BitmapShip", "CompareReply"};
  auto strip = [&](NetworkStats stats) {
    for (const std::string& kind : detection_kinds) {
      stats.messages_by_kind.erase(kind);
      stats.bytes_by_kind.erase(kind);
    }
    return stats;
  };
  const NetworkStats a = strip(serial);
  const NetworkStats b = strip(distributed);
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind);
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind);
}

// The coordinator is reachable (and meaningful) through the layered API:
// the master's BarrierCoordinator owns the pipeline statistics the run
// result republishes.
TEST(PipelineWireEquivalenceTest, BarrierCoordinatorExposesPipelineStats) {
  DsmOptions options = SmallOptions(4, ProtocolKind::kSingleWriterLrc);
  options.detection_pipeline = DetectionPipeline::kDistributed;
  options.detect_shards = 3;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  const RunResult result = system.Run([&](NodeContext& ctx) { RacyApp(ctx, data); });

  const PipelineStats& master = system.node(0).barrier_coordinator().pipeline_stats();
  EXPECT_EQ(master.shards_used, result.pipeline.shards_used);
  EXPECT_EQ(master.detect_epochs, result.pipeline.detect_epochs);
  EXPECT_EQ(master.detect_ps, result.pipeline.detect_ps);
  EXPECT_GT(master.detect_epochs, 0u);
  EXPECT_EQ(master.shards_used, 3u);
  // Workers never run the pipeline; their coordinators stay idle.
  for (NodeId worker = 1; worker < 4; ++worker) {
    EXPECT_EQ(system.node(worker).barrier_coordinator().pipeline_stats().detect_epochs,
              0u);
  }
}

// The modeled shard count is an option, not a property of the host: a
// default-options flat distributed run always charges four shards.
TEST(PipelineWireEquivalenceTest, DefaultShardCountIsFourOnAnyHost) {
  DsmOptions options = SmallOptions(4, ProtocolKind::kSingleWriterLrc);
  options.detection_pipeline = DetectionPipeline::kDistributed;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);
  const RunResult result = system.Run([&](NodeContext& ctx) { RacyApp(ctx, data); });
  EXPECT_GT(result.pipeline.detect_epochs, 0u);
  EXPECT_EQ(result.pipeline.shards_used, 4u);
}

// ---- Golden output of the barrier coordinator ----
// The coordinator's detection queue, flush points and barrier receives are
// pinned to values recorded from a known-good build: race count and report
// fingerprint, per-kind bytes, message and fault counts, and every
// DetectorStats / PipelineStats counter, for each app configuration under
// each barrier/pipeline/batch shape. Serial shapes also pin the simulated
// clock (critical path, overhead buckets, master detect time) exactly: the
// clock counts integer ps and message stamps carry them, so a value such as
// detect=1985033.6000000001 is the double nearest a whole number of ps
// (1985033600), printed with %.17g. Distributed sim time follows host
// message order, so it is left out. Water is excluded: its lock-grant order
// varies run to run.

struct GoldenShape {
  const char* name;
  bool tree;
  int fanout;
  int detect_batch;
  bool distributed;
  bool compress;
};

constexpr GoldenShape kGoldenShapes[] = {
    {"serial-flat-b1", false, 0, 1, false, false},
    {"serial-flat-b3", false, 0, 3, false, false},
    {"dist-flat-b1", false, 0, 1, true, false},
    {"dist-flat-b3-z", false, 0, 3, true, true},
    {"serial-tree2-b1", true, 2, 1, false, false},
    {"serial-tree3-b2-z", true, 3, 2, false, true},
    {"dist-tree2-b4-z", true, 2, 4, true, true},
    {"serial-tree7-b1", true, 7, 1, false, false},
    {"dist-tree7-b2-z", true, 7, 2, true, true},
};

struct GoldenConfig {
  const char* name;
  const char* app;
  ProtocolKind protocol;
  // Row padding the app lays its arrays out with; 0 = the DSM page size.
  // Multi-writer SOR pads to 256 bytes so neighbour rows falsely share pages
  // and every barrier runs a bitmap round. (Under single-writer that false
  // sharing would make ownership ping-pong schedule-dependent.)
  uint64_t pad_bytes;
};

constexpr GoldenConfig kGoldenConfigs[] = {
    {"sor_lazy", "sor", ProtocolKind::kSingleWriterLrc, 0},
    {"sor_multi", "sor", ProtocolKind::kMultiWriterHomeLrc, 256},
    {"lu_multi", "lu", ProtocolKind::kMultiWriterHomeLrc, 0},
    {"fft_multi", "fft", ProtocolKind::kMultiWriterHomeLrc, 0},
};

uint64_t Fnv1a(const std::string& text, uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

// %.17g round-trips a double exactly.
std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// One line that changes whenever any pinned output of the run changes.
std::string Fingerprint(const RunResult& r, bool pin_sim_time) {
  uint64_t report_hash = Fnv1a("");
  for (const RaceReport& report : r.races) {
    report_hash = Fnv1a(report.ToString() + "\n", report_hash);
  }
  char hash_hex[20];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(report_hash));
  std::string out = "races=" + std::to_string(r.races.size()) + " fp=" + hash_hex +
                    " msgs=" + std::to_string(r.net.messages) +
                    " faults=" + std::to_string(r.page_faults) + " bytes=";
  for (const auto& [kind, bytes] : r.net.bytes_by_kind) {
    out += kind + ":" + std::to_string(bytes) + ",";
  }
  const DetectorStats& d = r.detector;
  out += " det=";
  for (const uint64_t v : {d.intervals_total, d.interval_comparisons, d.concurrent_pairs,
                           d.overlapping_pairs, d.intervals_in_overlap, d.checklist_entries,
                           d.page_overlap_probes, d.bitmap_pairs_compared,
                           d.overlap_scratch_builds}) {
    out += std::to_string(v) + ",";
  }
  const PipelineStats& p = r.pipeline;
  out += " pipe=";
  for (const uint64_t v : {p.shards_used, p.detect_epochs, p.bitmap_bytes_raw,
                           p.bitmap_bytes_wire, p.remote_pairs_compared, p.remote_reports,
                           p.batch_rounds, p.batched_epochs}) {
    out += std::to_string(v) + ",";
  }
  if (pin_sim_time) {
    out += " sim=" + Exact(r.sim_time_ns) + " detect=" + Exact(PsToNs(p.detect_ps)) + " ovh=";
    for (const double v : r.overhead_ns) {
      out += Exact(v) + ",";
    }
  }
  return out;
}

RunResult RunGolden(const GoldenConfig& config, const GoldenShape& shape) {
  DsmOptions options;
  options.num_nodes = 8;
  options.protocol = config.protocol;
  options.barrier_tree = shape.tree;
  if (shape.tree) {
    options.barrier_fanout = shape.fanout;
  }
  options.detect_batch = shape.detect_batch;
  options.detection_pipeline =
      shape.distributed ? DetectionPipeline::kDistributed : DetectionPipeline::kSerial;
  options.compress_bitmaps = shape.compress;
  CatalogRequest request;
  request.app = config.app;
  request.page_size = config.pad_bytes > 0 ? config.pad_bytes : options.page_size;
  std::unique_ptr<ParallelApp> app = MakeCatalogApp(request);
  DsmSystem system(options);
  app->Setup(system);
  RunResult result = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  EXPECT_TRUE(app->Verify()) << config.name << " " << shape.name;
  return result;
}

// kGolden[config][shape], in kGoldenConfigs x kGoldenShapes order.
const char* const kGolden[4][9] = {
    {
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierArrive:12608,BarrierRelease:70720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,672,672,0,0,0,122756,0,0, pipe=0,0,0,0,0,0,0,0, sim=112069452 "
        "detect=4336780 ovh=101065024,125248000,100198400,4336780,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierArrive:12608,BarrierRelease:70720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,672,672,0,0,0,122756,0,0, pipe=0,0,0,0,0,0,0,0, sim=112069452 "
        "detect=4336780 ovh=101065024,125248000,100198400,4336780,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierArrive:12608,BarrierRelease:70720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,672,672,0,0,0,122756,0,0, pipe=0,0,0,0,0,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierArrive:12608,BarrierRelease:70720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,672,672,0,0,0,122756,0,0, pipe=0,0,0,0,0,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierTreeArrive:187788,BarrierTreeRelease:34720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,0,0,0,0,0,0,0,0, pipe=0,0,0,0,0,0,0,0, sim=112334192 detect=29520 "
        "ovh=100234688,125248000,100198400,73320,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierTreeArrive:160032,BarrierTreeRelease:34096,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,0,0,0,0,0,0,0,0, pipe=0,0,0,0,0,0,0,0, sim=111209008 detect=29520 "
        "ovh=100204736,125248000,100198400,66560,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 "
        "bytes=BarrierTreeArrive:187788,BarrierTreeRelease:34720,PageReply:1633720,"
        "PageRequest:24345, "
        "det=96,0,0,0,0,0,0,0,0, pipe=0,0,0,0,0,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 bytes=BarrierTreeArrive:104608,"
        "BarrierTreeRelease:32848,PageReply:1633720,PageRequest:24345, det=96,0,0,0,0,0,0,0,0, "
        "pipe=0,0,0,0,0,0,0,0, sim=108165896 detect=29520 ovh=100144832,125248000,100198400,"
        "53080,0,",
        "races=0 fp=cbf29ce484222325 msgs=1020 faults=940 bytes=BarrierTreeArrive:104608,"
        "BarrierTreeRelease:32848,PageReply:1633720,PageRequest:24345, det=96,0,0,0,0,0,0,0,0, "
        "pipe=0,0,0,0,0,0,0,0,",
    },
    {
        "races=0 fp=cbf29ce484222325 msgs=612 faults=207 "
        "bytes=BarrierArrive:8736,BarrierRelease:40460,BitmapReply:23084,"
        "BitmapRequest:2336,DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,"
        "PageRequest:5265, "
        "det=96,672,672,35,40,84,4032,126,0, pipe=1,5,23084,23084,0,0,0,0, "
        "sim=61617751.600000001 detect=1985033.6000000001 "
        "ovh=13272778,125248000,100198400,181440,1803593.6000000001,",
        "races=0 fp=cbf29ce484222325 msgs=570 faults=207 "
        "bytes=BarrierArrive:8736,BarrierRelease:40460,BitmapReply:22244,"
        "BitmapRequest:1496,DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,"
        "PageRequest:5265, "
        "det=96,672,672,35,40,84,4032,126,0, pipe=1,5,22244,22244,0,0,2,5, "
        "sim=61214071.600000001 detect=1581353.6000000001 "
        "ovh=13272778,125248000,100198400,181440,1399913.6000000001,",
        "races=0 fp=cbf29ce484222325 msgs=647 faults=207 "
        "bytes=BarrierArrive:8736,BarrierRelease:40460,BitmapShip:13356,"
        "CompareReply:2660,CompareRequest:3356,DiffFlush:601496,DiffFlushAck:4480,"
        "PageReply:483912,PageRequest:5265, "
        "det=96,672,672,35,40,84,4032,126,0, pipe=4,5,13344,13344,108,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=647 faults=207 "
        "bytes=BarrierArrive:8736,BarrierRelease:40460,BitmapShip:3156,CompareReply:2660,"
        "CompareRequest:3356,DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,"
        "PageRequest:5265, "
        "det=96,672,672,35,40,84,4032,126,0, pipe=4,5,13344,1728,108,0,2,5,",
        "races=0 fp=cbf29ce484222325 msgs=612 faults=207 "
        "bytes=BarrierTreeArrive:174440,BarrierTreeRelease:14184,BitmapReply:23084,"
        "BitmapRequest:2336,DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,"
        "PageRequest:5265, "
        "det=96,25,25,25,40,84,720,126,0, pipe=0,5,23084,23084,0,0,0,0, sim=65571723.600000001 "
        "detect=1835433.6000000001 "
        "ovh=13140698,125248000,100198400,50320,1803593.6000000001,",
        "races=0 fp=cbf29ce484222325 msgs=584 faults=207 "
        "bytes=BarrierTreeArrive:148592,BarrierTreeRelease:13168,BitmapReply:3540,"
        "BitmapRequest:1776,DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,"
        "PageRequest:5265, "
        "det=96,25,25,25,40,84,720,126,0, pipe=0,5,22524,3540,0,0,3,5, sim=63668607.600000001 "
        "detect=579145.59999999998 "
        "ovh=13135706,125248000,100198400,49120,547305.59999999998,",
        "races=0 fp=cbf29ce484222325 msgs=647 faults=207 "
        "bytes=BarrierTreeArrive:174440,BarrierTreeRelease:14184,BitmapShip:3156,"
        "CompareReply:2660,CompareRequest:3356,DiffFlush:601496,DiffFlushAck:4480,"
        "PageReply:483912,PageRequest:5265, "
        "det=96,25,25,25,40,84,720,126,0, pipe=0,5,13344,1728,108,0,2,5,",
        "races=0 fp=cbf29ce484222325 msgs=612 faults=207 bytes=BarrierTreeArrive:96456,"
        "BarrierTreeRelease:11112,BitmapReply:23084,BitmapRequest:2336,DiffFlush:601496,"
        "DiffFlushAck:4480,PageReply:483912,PageRequest:5265, det=96,35,35,35,40,84,1008,126,0,"
        " pipe=0,5,23084,23084,0,0,0,0, sim=61926383.600000001 detect=1846113.6000000001 "
        "ovh=13125722,125248000,100198400,46720,1803593.6000000001,",
        "races=0 fp=cbf29ce484222325 msgs=647 faults=207 bytes=BarrierTreeArrive:96456,"
        "BarrierTreeRelease:11112,BitmapShip:3156,CompareReply:2660,CompareRequest:3356,"
        "DiffFlush:601496,DiffFlushAck:4480,PageReply:483912,PageRequest:5265, det=96,35,35,35,"
        "40,84,1008,126,0, pipe=0,5,13344,1728,108,0,3,5,",
    },
    {
        "races=0 fp=cbf29ce484222325 msgs=1110 faults=292 "
        "bytes=BarrierArrive:35388,BarrierRelease:155320,BitmapReply:41362,"
        "BitmapRequest:4388,DiffFlush:128284,DiffFlushAck:5880,PageReply:653488,"
        "PageRequest:7110, "
        "det=416,2912,2912,168,70,144,2772,1122,0, pipe=1,14,41362,41362,0,0,0,0, "
        "sim=62264931.200000003 detect=4131287.2000000002 "
        "ovh=7014194,54324000,43459200,271740,3859547.2000000002,",
        "races=0 fp=cbf29ce484222325 msgs=1042 faults=292 "
        "bytes=BarrierArrive:35388,BarrierRelease:155320,BitmapReply:40002,"
        "BitmapRequest:3028,DiffFlush:128284,DiffFlushAck:5880,PageReply:653488,"
        "PageRequest:7110, "
        "det=416,2912,2912,168,70,144,2772,1122,0, pipe=1,14,40002,40002,0,0,7,14, "
        "sim=61354211.200000003 detect=3220567.2000000002 "
        "ovh=7014194,54324000,43459200,271740,2948827.2000000002,",
        "races=0 fp=cbf29ce484222325 msgs=1278 faults=292 "
        "bytes=BarrierArrive:35388,BarrierRelease:155320,BitmapShip:112036,"
        "CompareReply:5168,CompareRequest:14572,DiffFlush:128284,DiffFlushAck:5880,"
        "PageReply:653488,PageRequest:7110, "
        "det=416,2912,2912,168,70,144,2772,1122,0, pipe=4,14,113702,113702,1017,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=1278 faults=292 "
        "bytes=BarrierArrive:35388,BarrierRelease:155320,BitmapShip:60192,"
        "CompareReply:5168,CompareRequest:14572,DiffFlush:128284,DiffFlushAck:5880,"
        "PageReply:653488,PageRequest:7110, "
        "det=416,2912,2912,168,70,144,2772,1122,0, pipe=4,14,113702,55278,1017,0,7,14,",
        "races=0 fp=cbf29ce484222325 msgs=1110 faults=292 "
        "bytes=BarrierTreeArrive:750368,BarrierTreeRelease:38740,BitmapReply:41362,"
        "BitmapRequest:4388,DiffFlush:128284,DiffFlushAck:5880,PageReply:653488,"
        "PageRequest:7110, "
        "det=416,106,106,106,70,144,1708,1122,0, pipe=0,14,41362,41362,0,0,0,0, "
        "sim=81437309.200000003 detect=3931907.2000000002 "
        "ovh=6856114,54324000,43459200,125060,3859547.2000000002,",
        "races=0 fp=cbf29ce484222325 msgs=1080 faults=292 "
        "bytes=BarrierTreeArrive:638648,BarrierTreeRelease:38228,BitmapReply:22538,"
        "BitmapRequest:3788,DiffFlush:128284,DiffFlushAck:5880,PageReply:653488,"
        "PageRequest:7110, "
        "det=416,118,118,118,70,144,1942,1122,0, pipe=0,14,40762,22538,0,0,11,14, "
        "sim=73486160.200000003 detect=2601969.2000000002 "
        "ovh=6846754,54324000,43459200,123200,2520699.2000000002,",
        "races=0 fp=cbf29ce484222325 msgs=1278 faults=292 "
        "bytes=BarrierTreeArrive:750368,BarrierTreeRelease:38740,BitmapShip:60192,"
        "CompareReply:5168,CompareRequest:14572,DiffFlush:128284,DiffFlushAck:5880,"
        "PageReply:653488,PageRequest:7110, "
        "det=416,106,106,106,70,144,1708,1122,0, pipe=0,14,113702,55278,1017,0,6,14,",
        "races=0 fp=cbf29ce484222325 msgs=1110 faults=292 bytes=BarrierTreeArrive:414260,"
        "BarrierTreeRelease:37532,BitmapReply:41362,BitmapRequest:4388,DiffFlush:128284,"
        "DiffFlushAck:5880,PageReply:653488,PageRequest:7110, det=416,168,168,168,70,144,2772,"
        "1122,0, pipe=0,14,41362,41362,0,0,0,0, sim=64008231.200000003 "
        "detect=3972867.2000000002 ovh=6826370,54324000,43459200,119180,3859547.2000000002,",
        "races=0 fp=cbf29ce484222325 msgs=1278 faults=292 bytes=BarrierTreeArrive:414260,"
        "BarrierTreeRelease:37532,BitmapShip:60192,CompareReply:5168,CompareRequest:14572,"
        "DiffFlush:128284,DiffFlushAck:5880,PageReply:653488,PageRequest:7110, det=416,168,168,"
        "168,70,144,2772,1122,0, pipe=0,14,113702,55278,1017,0,11,14,",
    },
    {
        "races=0 fp=cbf29ce484222325 msgs=530 faults=177 "
        "bytes=BarrierArrive:7236,BarrierRelease:33168,BitmapReply:20580,"
        "BitmapRequest:1960,DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,"
        "PageRequest:5940, "
        "det=80,560,560,32,32,78,2784,180,0, pipe=1,4,20580,20580,0,0,0,0, "
        "sim=31357634 detect=1685808 "
        "ovh=5652778,45312000,36249600,131040,1554768,",
        "races=0 fp=cbf29ce484222325 msgs=502 faults=177 "
        "bytes=BarrierArrive:7236,BarrierRelease:33168,BitmapReply:20020,"
        "BitmapRequest:1400,DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,"
        "PageRequest:5940, "
        "det=80,560,560,32,32,78,2784,180,0, pipe=1,4,20020,20020,0,0,2,4, "
        "sim=31088514 detect=1416688 "
        "ovh=5652778,45312000,36249600,131040,1285648,",
        "races=0 fp=cbf29ce484222325 msgs=562 faults=177 "
        "bytes=BarrierArrive:7236,BarrierRelease:33168,BitmapShip:18216,"
        "CompareReply:2128,CompareRequest:3240,DiffFlush:233016,DiffFlushAck:2800,"
        "PageReply:545952,PageRequest:5940, "
        "det=80,560,560,32,32,78,2784,180,0, pipe=4,4,19460,19460,150,0,0,0,",
        "races=0 fp=cbf29ce484222325 msgs=562 faults=177 "
        "bytes=BarrierArrive:7236,BarrierRelease:33168,BitmapShip:3216,CompareReply:2128,"
        "CompareRequest:3240,DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,"
        "PageRequest:5940, "
        "det=80,560,560,32,32,78,2784,180,0, pipe=4,4,19460,1960,150,0,2,4,",
        "races=0 fp=cbf29ce484222325 msgs=530 faults=177 "
        "bytes=BarrierTreeArrive:145372,BarrierTreeRelease:10208,BitmapReply:20580,"
        "BitmapRequest:1960,DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,"
        "PageRequest:5940, "
        "det=80,24,24,24,32,78,800,180,0, pipe=0,4,20580,20580,0,0,0,0, sim=34526790 "
        "detect=1588068 "
        "ovh=5524026,45312000,36249600,54500,1554768,",
        "races=0 fp=cbf29ce484222325 msgs=502 faults=177 "
        "bytes=BarrierTreeArrive:123808,BarrierTreeRelease:9968,BitmapReply:2520,"
        "BitmapRequest:1400,DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,"
        "PageRequest:5940, "
        "det=80,26,26,26,32,78,1040,180,0, pipe=0,4,20020,2520,0,0,2,4, sim=32834006 "
        "detect=417468 ovh=5518202,45312000,36249600,53460,375648,",
        "races=0 fp=cbf29ce484222325 msgs=562 faults=177 "
        "bytes=BarrierTreeArrive:145372,BarrierTreeRelease:10208,BitmapShip:3216,"
        "CompareReply:2128,CompareRequest:3240,DiffFlush:233016,DiffFlushAck:2800,"
        "PageReply:545952,PageRequest:5940, "
        "det=80,24,24,24,32,78,800,180,0, pipe=0,4,19460,1960,150,0,1,4,",
        "races=0 fp=cbf29ce484222325 msgs=530 faults=177 bytes=BarrierTreeArrive:80528,"
        "BarrierTreeRelease:8192,BitmapReply:20580,BitmapRequest:1960,DiffFlush:233016,"
        "DiffFlushAck:2800,PageReply:545952,PageRequest:5940, det=80,32,32,32,32,78,1216,180,0,"
        " pipe=0,4,20580,20580,0,0,0,0, sim=31620582 detect=1603108 ovh=5507386,45312000,"
        "36249600,51620,1554768,",
        "races=0 fp=cbf29ce484222325 msgs=562 faults=177 bytes=BarrierTreeArrive:80528,"
        "BarrierTreeRelease:8192,BitmapShip:3216,CompareReply:2128,CompareRequest:3240,"
        "DiffFlush:233016,DiffFlushAck:2800,PageReply:545952,PageRequest:5940, det=80,32,32,32,"
        "32,78,1216,180,0, pipe=0,4,19460,1960,150,0,2,4,",
    },
};

class CoordinatorGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(CoordinatorGoldenTest, OutputMatchesRecordedValues) {
  const GoldenConfig& config = kGoldenConfigs[GetParam()];
  for (size_t s = 0; s < std::size(kGoldenShapes); ++s) {
    const GoldenShape& shape = kGoldenShapes[s];
    const std::string got = Fingerprint(RunGolden(config, shape), !shape.distributed);
    EXPECT_EQ(got, kGolden[GetParam()][s])
        << config.name << " " << shape.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AppConfigs, CoordinatorGoldenTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::string(kGoldenConfigs[param_info.param].name);
                         });

}  // namespace
}  // namespace cvm
