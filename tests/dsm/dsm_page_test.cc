// Focused tests of the page protocols: single-writer ownership transfer and
// serving, multi-writer twin/diff merging of concurrent disjoint writes,
// and coherence across a sweep of page sizes.
#include <gtest/gtest.h>

#include <tuple>

#include "src/apps/sor.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions Options(int nodes, ProtocolKind protocol, uint64_t page_size) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = page_size;
  options.max_shared_bytes = 512 * 1024;
  options.protocol = protocol;
  return options;
}

// Runs 8-node SOR on a 32 MiB segment and checks every node's page table
// holds entries only for pages it fetched or materialized as their home: a
// small fraction of the 8192-page segment, all inside the allocated prefix,
// each holding data.
void ExpectSparsePageTables(bool barrier_tree) {
  DsmOptions options;
  options.num_nodes = 8;
  options.page_size = 4096;
  options.max_shared_bytes = 32ull << 20;
  options.barrier_tree = barrier_tree;
  options.barrier_fanout = 2;
  SorApp::Params params;
  params.rows = 66;
  params.cols = 1024;  // One page per row.
  params.iters = 2;
  SorApp app(params);
  DsmSystem system(options);
  app.Setup(system);
  system.Run([&app](NodeContext& ctx) { app.Run(ctx); });
  ASSERT_TRUE(app.Verify());

  const int used_pages = static_cast<int>(
      (system.segment().used_bytes() + options.page_size - 1) / options.page_size);
  ASSERT_EQ(system.segment().num_pages(), 8192);
  for (NodeId n = 0; n < options.num_nodes; ++n) {
    const PageTable& table = system.node(n).page_table();
    size_t entries = 0;
    for (PageId page = 0; page < table.num_pages(); ++page) {
      const PageEntry* entry = table.Find(page);
      if (entry == nullptr) {
        continue;
      }
      ++entries;
      EXPECT_LT(page, used_pages) << "node " << n;
      // Only a fetch or a home materialization creates an entry, and both
      // install data; an entry without data was created by a peek.
      EXPECT_EQ(entry->data.size(), options.page_size) << "node " << n << " page " << page;
    }
    EXPECT_EQ(entries, table.num_entries()) << "node " << n;
    EXPECT_GT(entries, 0u) << "node " << n;
  }
}

TEST(DsmPageTest, PageTablesHoldOnlyTouchedPages) { ExpectSparsePageTables(false); }

// The tree barrier scans every page for its interest bitmap; the scan must
// not create entries.
TEST(DsmPageTest, TreeBarrierInterestScanCreatesNoEntries) { ExpectSparsePageTables(true); }

TEST(DsmPageTest, MultiWriterMergesConcurrentDisjointWrites) {
  // The defining multi-writer property: two nodes write DIFFERENT words of
  // the same page in the same epoch, with no lock; both writes survive at
  // the home (single-writer would serialize via ownership; home-based
  // multi-writer merges diffs). It is false sharing, not a race.
  DsmOptions options = Options(4, ProtocolKind::kMultiWriterHomeLrc, 256);
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 32);

  RunResult result = system.Run([&](NodeContext& ctx) {
    ctx.Barrier();
    arr.Set(ctx, ctx.id() * 4, 100 + ctx.id());  // Disjoint words, one page.
    ctx.Barrier();
    for (int n = 0; n < ctx.num_nodes(); ++n) {
      EXPECT_EQ(arr.Get(ctx, n * 4), 100 + n) << "write by node " << n << " lost";
    }
  });
  EXPECT_TRUE(result.races.empty()) << result.races.front().ToString();
  // The page DID overlap in concurrent intervals (false sharing probed).
  EXPECT_GT(result.detector.overlapping_pairs, 0u);
}

TEST(DsmPageTest, SingleWriterSerializesConcurrentSamePageWrites) {
  // Same program under single-writer: ownership transfers serialize the
  // writes; all survive because they touch different words.
  DsmOptions options = Options(4, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 32);

  RunResult result = system.Run([&](NodeContext& ctx) {
    ctx.Barrier();
    arr.Set(ctx, ctx.id() * 4, 100 + ctx.id());
    ctx.Barrier();
    for (int n = 0; n < ctx.num_nodes(); ++n) {
      EXPECT_EQ(arr.Get(ctx, n * 4), 100 + n);
    }
  });
  EXPECT_TRUE(result.races.empty());
  EXPECT_GT(result.page_faults, 0u);
}

TEST(DsmPageTest, OwnershipMovesWithTheLock) {
  // A lock-protected page migrates between writers; values chain correctly.
  DsmOptions options = Options(3, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem system(options);
  auto chain = SharedVar<int32_t>::Alloc(system, "chain");

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      chain.Set(ctx, 0);
    }
    ctx.Barrier();
    for (int round = 0; round < 12; ++round) {
      ctx.Lock(0);
      chain.Set(ctx, chain.Get(ctx) + 1);
      ctx.Unlock(0);
    }
    ctx.Barrier();
    EXPECT_EQ(chain.Get(ctx), 36);
  });
  EXPECT_TRUE(result.races.empty());
}

TEST(DsmPageTest, ReadersGetCopiesWithoutStealingOwnership) {
  DsmOptions options = Options(4, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 64);

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < 64; ++i) {
        data.Set(ctx, i, i * i);
      }
    }
    ctx.Barrier();
    // Everyone reads repeatedly: one fetch each, then local hits.
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 64; i += 8) {
        EXPECT_EQ(data.Get(ctx, i), i * i);
      }
    }
  });
  // Page fault count stays around one read fetch per reader per page, not
  // one per access round.
  EXPECT_LE(result.page_faults, 4u * 2u + 8u);
  EXPECT_TRUE(result.races.empty());
}

// Coherence sweep across page sizes and protocols: lock-ordered token
// passing must be exact regardless of granularity.
class PageSizeSweepTest : public ::testing::TestWithParam<std::tuple<ProtocolKind, uint64_t>> {
};

TEST_P(PageSizeSweepTest, TokenRingIsCoherent) {
  const auto [protocol, page_size] = GetParam();
  DsmOptions options = Options(4, protocol, page_size);
  DsmSystem system(options);
  auto token = SharedVar<int32_t>::Alloc(system, "token");
  auto history = SharedArray<int32_t>::Alloc(system, "history", 64);

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      token.Set(ctx, 0);
    }
    ctx.Barrier();
    for (int i = 0; i < 12; ++i) {
      ctx.Lock(1);
      const int32_t t = token.Get(ctx);
      history.Set(ctx, t % 48, ctx.id());
      token.Set(ctx, t + 1);
      ctx.Unlock(1);
    }
    ctx.Barrier();
    EXPECT_EQ(token.Get(ctx), 48);
  });
  EXPECT_TRUE(result.races.empty()) << result.races.front().ToString();
}

using SweepParam = std::tuple<ProtocolKind, uint64_t>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& param_info) {
  const auto [protocol, page_size] = param_info.param;
  std::string name;
  switch (protocol) {
    case ProtocolKind::kSingleWriterLrc:
      name = "SingleWriter";
      break;
    case ProtocolKind::kMultiWriterHomeLrc:
      name = "MultiWriterHome";
      break;
    case ProtocolKind::kEagerRcInvalidate:
      name = "EagerRc";
      break;
  }
  return name + "_" + std::to_string(page_size) + "B";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageSizeSweepTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kSingleWriterLrc,
                                         ProtocolKind::kMultiWriterHomeLrc,
                                         ProtocolKind::kEagerRcInvalidate),
                       ::testing::Values(64, 256, 1024, 4096)),
    SweepName);

}  // namespace
}  // namespace cvm
