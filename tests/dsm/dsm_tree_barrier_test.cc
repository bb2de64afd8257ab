// Equivalence of the combine-tree barrier path with the flat master
// barrier (docs/ARCHITECTURE.md "Combine-tree barrier"): for a
// deterministic barrier-only workload the tree must produce the
// bit-identical race-report list — same kinds, words, interval pairs and
// provenance — at every fanout, with and without epoch batching and the
// distributed compressed compare, under every consistency protocol. The
// tree changes how check lists are built and where barrier traffic flows;
// it must not change what the detector reports or how the app-level
// coherence traffic looks on the wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

constexpr uint64_t kPageSize = 256;
constexpr int kWordsPerPage = static_cast<int>(kPageSize / sizeof(int32_t));

DsmOptions BaseOptions(int nodes, ProtocolKind protocol) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = kPageSize;
  options.max_shared_bytes = static_cast<uint64_t>(nodes) * kPageSize + (1 << 16);
  options.protocol = protocol;
  return options;
}

// The neighbor-halo workload: one page per node. Each epoch every node
// writes words 0..3 of its own page, writes word 2 of its right neighbor's
// page (a W/W race with that node's own write), and reads word 9 of the
// neighbor page (concurrent but disjoint — a check pair that must NOT be
// reported). Barrier-only, so the run is fully deterministic and the
// expected report list is exact: nodes x epochs W/W races.
void HaloApp(NodeContext& ctx, SharedArray<int32_t>& data, int epochs) {
  const int id = ctx.id();
  const size_t own = static_cast<size_t>(id) * kWordsPerPage;
  const size_t next =
      static_cast<size_t>((id + 1) % ctx.num_nodes()) * kWordsPerPage;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int w = 0; w < 4; ++w) {      // Covers word 2: the neighbor's target.
      data.Set(ctx, own + w, id * 100 + epoch * 10 + w);
    }
    data.Set(ctx, next + 2, id);       // Unsynchronized: the race.
    (void)data.Get(ctx, next + 9);     // Concurrent read, no race.
    if (epoch + 1 < epochs) {
      ctx.Barrier();
    }
    // The run's implicit final barrier checks the last epoch.
  }
}

std::vector<std::string> ReportKey(const RunResult& result) {
  std::vector<std::string> key;
  key.reserve(result.races.size());
  for (const RaceReport& report : result.races) {
    key.push_back(report.ToString());
  }
  return key;
}

struct BarrierVariant {
  bool tree = false;
  int fanout = 4;
  int detect_batch = 1;
  // Distributed compares over compressed bitmaps; with tree + batch this is
  // the kept scaling shape (perfbench's lu-tree configuration).
  bool distributed = false;
};

RunResult RunHalo(int nodes, ProtocolKind protocol, const BarrierVariant& v,
                  int epochs = 3) {
  DsmOptions options = BaseOptions(nodes, protocol);
  options.barrier_tree = v.tree;
  options.barrier_fanout = v.fanout;
  options.detect_batch = v.detect_batch;
  options.detection_pipeline =
      v.distributed ? DetectionPipeline::kDistributed : DetectionPipeline::kSerial;
  options.compress_bitmaps = v.distributed;
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(
      system, "halo", static_cast<size_t>(nodes) * kWordsPerPage);
  return system.Run([&](NodeContext& ctx) { HaloApp(ctx, data, epochs); });
}

class TreeBarrierEquivalenceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TreeBarrierEquivalenceTest, TreeMatchesFlatBitForBit) {
  constexpr int kNodes = 8;
  constexpr int kEpochs = 3;
  const RunResult flat = RunHalo(kNodes, GetParam(), BarrierVariant{});
  // The workload's race population is exact; guard the baseline itself.
  EXPECT_EQ(flat.races.size(), static_cast<size_t>(kNodes) * kEpochs);
  const auto expected = ReportKey(flat);

  for (const BarrierVariant& v :
       {BarrierVariant{true, 2, 1, false},    // Deep binary tree.
        BarrierVariant{true, 3, 1, false},    // Uneven last level.
        BarrierVariant{true, 8, 1, false},    // Degenerate one-level star.
        BarrierVariant{true, 2, 2, false},    // Epoch batching.
        BarrierVariant{true, 2, 2, true}}) {  // The kept tree shape.
    const RunResult result = RunHalo(kNodes, GetParam(), v);
    EXPECT_EQ(ReportKey(result), expected)
        << "fanout " << v.fanout << " batch " << v.detect_batch << " distributed "
        << v.distributed;
    if (v.detect_batch > 1) {
      // Batching really coalesced epochs into fewer detection rounds.
      EXPECT_GT(result.pipeline.batched_epochs, 0u);
      EXPECT_LT(result.pipeline.batch_rounds, result.pipeline.batched_epochs);
    }
    if (v.distributed) {
      // Constituents compared pairs on the root's behalf.
      EXPECT_GT(result.pipeline.remote_pairs_compared, 0u);
    }
  }
}

// The tree root folds the epoch's interval counts into the detector the
// way the flat build does, so the interval-usage metrics read the same.
TEST_P(TreeBarrierEquivalenceTest, IntervalCountersMatchFlat) {
  constexpr int kNodes = 8;
  const RunResult flat = RunHalo(kNodes, GetParam(), BarrierVariant{});
  const RunResult tree = RunHalo(kNodes, GetParam(), BarrierVariant{true, 2, 1, false});
  EXPECT_GT(flat.detector.intervals_in_overlap, 0u);
  EXPECT_EQ(tree.detector.intervals_total, flat.detector.intervals_total);
  EXPECT_EQ(tree.detector.intervals_in_overlap, flat.detector.intervals_in_overlap);
}

// The tree reroutes barrier and check-list traffic only. Pin the per-kind
// message counts that are deterministic functions of the synchronization
// structure: the detection-round kinds (driven by the check list, which is
// bit-identical by the test above), the eager push/ack kinds, locks (none
// here), and the barrier kinds themselves. Page-fault kinds (PageRequest,
// DiffFlush, ...) are excluded deliberately — their counts vary run-to-run
// even flat-vs-flat, because intra-epoch fault interleavings are scheduled
// by real threads (a fault races the neighbor's invalidation, ownership
// migration adds forwarding hops). That jitter is not a property of the
// barrier design.
TEST_P(TreeBarrierEquivalenceTest, DeterministicTrafficUnchanged) {
  constexpr int kNodes = 8;
  constexpr int kEpochs = 3;
  const RunResult flat = RunHalo(kNodes, GetParam(), BarrierVariant{});
  const RunResult tree = RunHalo(kNodes, GetParam(), BarrierVariant{true, 3, 1, false});
  const auto count = [](const RunResult& r, const char* kind) -> uint64_t {
    const auto it = r.net.messages_by_kind.find(kind);
    return it == r.net.messages_by_kind.end() ? 0 : it->second;
  };
  for (const char* kind : {"BitmapRequest", "BitmapReply", "CompareRequest",
                           "BitmapShip", "CompareReply", "ErcUpdate", "ErcAck",
                           "LockRequest", "LockGrant"}) {
    EXPECT_EQ(count(flat, kind), count(tree, kind)) << "kind " << kind;
  }
  // The flat barrier kinds are fully replaced by the tree kinds: one arrive
  // and one release per non-root node per epoch in both shapes (the tree
  // moves hops and bytes, not the handshake count).
  const uint64_t handshakes = static_cast<uint64_t>(kNodes - 1) * kEpochs;
  EXPECT_EQ(count(flat, "BarrierArrive"), handshakes);
  EXPECT_EQ(count(flat, "BarrierTreeArrive"), 0u);
  EXPECT_EQ(count(tree, "BarrierArrive"), 0u);
  EXPECT_EQ(count(tree, "BarrierTreeArrive"), handshakes);
  EXPECT_EQ(count(tree, "BarrierTreeRelease"), handshakes);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, TreeBarrierEquivalenceTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate));

// A deeper tree at a bigger cluster: 64 nodes, fanout 4 gives three interior
// levels, exercising multi-hop fragment claiming and interest-filtered
// release propagation, in the kept tree shape (batched, distributed,
// compressed). One protocol keeps the runtime modest.
TEST(TreeBarrierScaleTest, SixtyFourNodesThreeLevels) {
  constexpr int kNodes = 64;
  const RunResult flat =
      RunHalo(kNodes, ProtocolKind::kSingleWriterLrc, BarrierVariant{}, 2);
  const RunResult tree = RunHalo(kNodes, ProtocolKind::kSingleWriterLrc,
                                 BarrierVariant{true, 4, 2, true}, 2);
  EXPECT_EQ(flat.races.size(), static_cast<size_t>(kNodes) * 2);
  EXPECT_EQ(ReportKey(tree), ReportKey(flat));
  EXPECT_GT(tree.pipeline.remote_pairs_compared, 0u);
  EXPECT_LT(tree.pipeline.batch_rounds, tree.pipeline.batched_epochs);
  // The headline property: aggregation keeps barrier bytes well below the
  // flat all-to-master broadcast at this size.
  EXPECT_LT(tree.net.bytes, flat.net.bytes);
}

}  // namespace
}  // namespace cvm
