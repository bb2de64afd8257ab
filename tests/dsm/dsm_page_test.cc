// Focused tests of the page protocols: single-writer ownership transfer and
// serving, copy-on-write frames shared by serving, multi-writer twin/diff
// merging of concurrent disjoint writes,
// coherence across a sweep of page sizes, and the node's page cache (no
// stale hit after a page changes state, no accounting lost on a hit).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/apps/sor.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"
#include "src/race/postmortem.h"

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
// each holding a copy: a page-size frame, its own or shared.
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
      // install a frame: a served one, the zero frame for a home page nobody
      // has written, or the home's own; an entry without one was created by
      // a peek.
      ASSERT_NE(entry->frame, nullptr) << "node " << n << " page " << page;
      EXPECT_EQ(entry->frame->size(), options.page_size) << "node " << n << " page " << page;
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

// Under single-writer LRC a home materializes a page it never writes only to
// grant its ownership away. Nobody had written the page, so the home keeps
// the zero frame for it: a valid (later stale) all-zero copy with no storage
// of its own.
TEST(DsmPageTest, SingleWriterHomesKeepZeroFramesForPagesGrantedAway) {
  DsmOptions options;
  options.num_nodes = 8;
  options.page_size = 4096;
  options.max_shared_bytes = 2ull << 20;
  options.protocol = ProtocolKind::kSingleWriterLrc;
  SorApp::Params params;
  params.rows = 66;
  params.cols = 1024;  // One page per row.
  params.iters = 2;
  SorApp app(params);
  DsmSystem system(options);
  app.Setup(system);
  system.Run([&app](NodeContext& ctx) { app.Run(ctx); });
  ASSERT_TRUE(app.Verify());

  // Interior rows 1-64 go 8 to a node; row 0 is node 0's, row 65 node 7's.
  auto writer = [](int row) { return row == 0 ? 0 : std::min(7, (row - 1) / 8); };
  size_t checked = 0;
  for (const Symbol& grid : system.segment().symbols()) {
    const PageId base = system.segment().PageOf(grid.base);
    for (int row = 0; row < params.rows; ++row) {
      const PageId page = base + row;
      const NodeId home = page % options.num_nodes;
      // Node 0 reads every row in its final check; every node reads the
      // rows next to its own block. Those homes hold fetched bytes.
      const int first = 1 + home * 8;
      if (home == 0 || writer(row) == home || (row >= first - 1 && row <= first + 8)) {
        continue;
      }
      ++checked;
      const PageEntry* entry = system.node(home).page_table().Find(page);
      ASSERT_NE(entry, nullptr) << "home " << home << " page " << page;
      EXPECT_EQ(entry->frame, system.zero_frame()) << "home " << home << " page " << page;
      EXPECT_TRUE(entry->shared) << "home " << home << " page " << page;
      EXPECT_NE(entry->state, PageState::kReadWrite) << "home " << home << " page " << page;
    }
  }
  EXPECT_GT(checked, 80u);
}

// ---------------- Shared frames ----------------

// Spins on a host-side flag while serving the inbox: Compute polls, so the
// node keeps answering peers without ending its interval.
void ServeUntil(NodeContext& ctx, const std::atomic<bool>& flag) {
  while (!flag.load()) {
    ctx.Compute(1);
  }
}

// Node 0 reads every interior row of SOR's result grid in its final check.
// Each row it fetched is served by the row's writer, the page's owner by
// then, and both hold the one frame: the fetch copied nothing.
TEST(DsmSharedFrameTest, FinalCheckFetchesShareTheOwnersFrame) {
  DsmOptions options;
  options.num_nodes = 8;
  options.page_size = 4096;
  options.max_shared_bytes = 2ull << 20;
  options.protocol = ProtocolKind::kSingleWriterLrc;
  SorApp::Params params;
  params.rows = 66;
  params.cols = 1024;  // One page per row.
  params.iters = 2;    // The result is back in sor_grid0.
  SorApp app(params);
  DsmSystem system(options);
  app.Setup(system);
  system.Run([&app](NodeContext& ctx) { app.Run(ctx); });
  ASSERT_TRUE(app.Verify());

  const auto& symbols = system.segment().symbols();
  const auto grid = std::find_if(symbols.begin(), symbols.end(),
                                 [](const Symbol& s) { return s.name == "sor_grid0"; });
  ASSERT_NE(grid, symbols.end());
  const PageId base = system.segment().PageOf(grid->base);
  const PageTable& checker = system.node(0).page_table();
  for (int row = 9; row <= 64; ++row) {  // Rows 1-8 are node 0's own.
    const PageId page = base + row;
    const NodeId writer = (row - 1) / 8;
    const PageEntry* fetched = checker.Find(page);
    const PageEntry* owned = system.node(writer).page_table().Find(page);
    ASSERT_NE(fetched, nullptr) << "row " << row;
    ASSERT_NE(owned, nullptr) << "row " << row;
    EXPECT_EQ(fetched->frame, owned->frame) << "row " << row;
    EXPECT_TRUE(fetched->shared) << "row " << row;
    EXPECT_TRUE(owned->shared) << "row " << row;
  }
}

// A single-writer owner serves its writable page, then writes it again. The
// write goes to the owner's own new frame, so the reader keeps seeing the
// value it was served (weak-memory staleness) until a write notice
// invalidates its copy and it refetches.
TEST(DsmSharedFrameTest, OwnerWriteAfterServingLeavesTheReaderStale) {
  DsmOptions options = Options(2, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");  // Node 0's home page.
  const PageId page = static_cast<PageId>(x.addr() / options.page_size);
  std::atomic<bool> wrote{false};
  std::atomic<bool> read_done{false};
  std::atomic<bool> rewritten{false};

  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      ctx.Lock(0);
      x.Set(ctx, 1);
      wrote = true;
      ServeUntil(ctx, read_done);  // Serves its writable frame to node 1.
      EXPECT_TRUE(ctx.page_table().Writable(page));
      EXPECT_TRUE(ctx.page_table().Find(page)->shared);
      x.Set(ctx, 2);
      EXPECT_FALSE(ctx.page_table().Find(page)->shared);
      EXPECT_EQ(x.Get(ctx), 2);
      ctx.Unlock(0);
      rewritten = true;
    } else {
      ServeUntil(ctx, wrote);
      EXPECT_EQ(x.Get(ctx), 1);  // Fetch: the owner's frame, shared.
      EXPECT_TRUE(ctx.page_table().Find(page)->shared);
      read_done = true;
      ServeUntil(ctx, rewritten);
      EXPECT_EQ(x.Get(ctx), 1);  // Not invalidated yet: still the old frame.
      ctx.Lock(0);               // The owner's write notice arrives.
      EXPECT_EQ(x.Get(ctx), 2);
      ctx.Unlock(0);
    }
  });
}

// Multi-writer: the home serves its page to two readers, and one of them
// writes it. The writer's twin is the served frame itself, and its diff
// holds exactly its own write; the home applies it to a private copy, so
// the other reader's bytes are unchanged until it is invalidated.
TEST(DsmSharedFrameTest, HomeAppliesADiffWithoutTouchingServedFrames) {
  DsmOptions options = Options(3, ProtocolKind::kMultiWriterHomeLrc, 256);
  options.write_detection = WriteDetection::kDiffs;
  options.postmortem_trace = true;
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 64);  // Node 0's home page.
  const PageId page = static_cast<PageId>(arr.addr(0) / options.page_size);
  std::atomic<bool> read_done{false};
  std::atomic<bool> flushed{false};

  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      arr.Set(ctx, 0, 10);
    }
    ctx.Barrier();
    if (ctx.id() == 0) {
      ServeUntil(ctx, flushed);
      EXPECT_EQ(arr.Get(ctx, 4), 20);  // The home's frame has the diff.
    } else if (ctx.id() == 1) {
      ServeUntil(ctx, read_done);
      ctx.Lock(0);
      EXPECT_EQ(arr.Get(ctx, 0), 10);
      arr.Set(ctx, 4, 20);
      const PageEntry* entry = ctx.page_table().Find(page);
      EXPECT_TRUE(entry->twin_shared);
      EXPECT_FALSE(entry->shared);
      ctx.Unlock(0);  // Flushes the diff and waits for the home's ack.
      flushed = true;
    } else {
      EXPECT_EQ(arr.Get(ctx, 0), 10);
      EXPECT_TRUE(ctx.page_table().Find(page)->shared);
      read_done = true;
      ServeUntil(ctx, flushed);
      EXPECT_EQ(arr.Get(ctx, 4), 0);  // Its frame is the one served before.
      ctx.Lock(0);                    // Node 1's write notice arrives.
      EXPECT_EQ(arr.Get(ctx, 4), 20);
      ctx.Unlock(0);
    }
    ctx.Barrier();
    EXPECT_EQ(arr.Get(ctx, 0), 10) << "node " << ctx.id();
    EXPECT_EQ(arr.Get(ctx, 4), 20) << "node " << ctx.id();
  });

  int writer_pairs = 0;
  system.trace().ForEachBitmapPair(
      [&](const IntervalId& interval, PageId pair_page, const PageAccessBitmaps& pair) {
        if (pair_page != page || interval.node != 1 || pair.write.SetBits().empty()) {
          return;
        }
        EXPECT_EQ(pair.write.SetBits(), std::vector<uint32_t>{4}) << interval.ToString();
        ++writer_pairs;
      });
  EXPECT_EQ(writer_pairs, 1);
}

// A reply carries a frame handle, but the wire still charges the page.
TEST(DsmSharedFrameTest, PageReplyStillChargesThePage) {
  constexpr uint64_t kPageSize = 1024;
  PageReplyMsg reply;
  reply.page = 3;
  reply.data = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  EXPECT_EQ(PayloadByteSize(Payload{reply}), kMessageHeaderBytes + 8 + kPageSize);
  EXPECT_EQ(PayloadByteSize(reply), kMessageHeaderBytes + 8 + kPageSize);

  DsmOptions options = Options(2, ProtocolKind::kSingleWriterLrc, kPageSize);
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 8);
  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      arr.Set(ctx, 0, 1);
    }
    ctx.Barrier();
    EXPECT_EQ(arr.Get(ctx, 0), 1);
  });
  const uint64_t replies = result.net.messages_by_kind.at("PageReply");
  EXPECT_GT(replies, 0u);
  EXPECT_EQ(result.net.bytes_by_kind.at("PageReply"),
            replies * (kMessageHeaderBytes + 8 + kPageSize));
}

// ---------------- Page cache ----------------

TEST(DsmPageCacheTest, ServedOwnershipTransferForcesTheNextWriteToFault) {
  DsmOptions options = Options(2, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 64);  // One page.
  const PageId page = static_cast<PageId>(arr.addr(0) / options.page_size);
  std::atomic<bool> node1_owns{false};

  system.Run([&](NodeContext& ctx) {
    ctx.Barrier();  // Epoch 1.
    if (ctx.id() == 1) {
      arr.Set(ctx, 0, 11);  // Write fault: node 1 owns the page, cached writable.
      node1_owns = true;
      const uint64_t faults = ctx.page_faults();
      // Node 0's write pulls ownership away; node 1 serves it inside Poll.
      while (ctx.page_table().Writable(page)) {
        ctx.Compute(1);
      }
      arr.Set(ctx, 1, 12);  // Must fault again, not hit the stale entry.
      EXPECT_EQ(ctx.page_faults(), faults + 1);
    } else {
      ServeUntil(ctx, node1_owns);
      arr.Set(ctx, 32, 22);
    }
    ctx.Barrier();
    EXPECT_EQ(arr.Get(ctx, 0), 11) << "node " << ctx.id();
    EXPECT_EQ(arr.Get(ctx, 1), 12) << "node " << ctx.id();
    EXPECT_EQ(arr.Get(ctx, 32), 22) << "node " << ctx.id();
  });
}

class ZeroFrameTest : public ::testing::TestWithParam<ProtocolKind> {};

// A home reads a page nobody wrote through the zero frame, inline hits
// included, then writes it: the write takes a private copy, and the zero
// frame every other holder reads stays zero.
TEST_P(ZeroFrameTest, HomeReadsZeroThenWriteMaterializes) {
  DsmOptions options = Options(2, GetParam(), 256);
  DsmSystem system(options);
  auto a = SharedArray<int32_t>::Alloc(system, "a", 64);  // Page 0: node 0's home.
  SharedArray<int32_t>::Alloc(system, "pad", 64);         // Page 1: node 1's.
  auto b = SharedArray<int32_t>::Alloc(system, "b", 64);  // Page 2: node 0's again.
  ASSERT_EQ(a.addr(0) / options.page_size, 0u);
  ASSERT_EQ(b.addr(0) / options.page_size, 2u);

  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 64; ++i) {
          EXPECT_EQ(a.Get(ctx, i), 0);
          EXPECT_EQ(b.Get(ctx, i), 0);
        }
      }
      EXPECT_EQ(ctx.page_table().Find(0)->frame, system.zero_frame());
      a.Set(ctx, 5, 55);
      EXPECT_NE(ctx.page_table().Find(0)->frame, system.zero_frame());
      EXPECT_FALSE(ctx.page_table().Find(0)->shared);
      EXPECT_EQ(a.Get(ctx, 5), 55);
      EXPECT_EQ(a.Get(ctx, 6), 0);
      EXPECT_EQ(b.Get(ctx, 5), 0);  // Still the zero frame, still zero.
      EXPECT_EQ(ctx.page_table().Find(2)->frame, system.zero_frame());
    }
    ctx.Barrier();
    EXPECT_EQ(a.Get(ctx, 5), 55) << "node " << ctx.id();
    EXPECT_EQ(b.Get(ctx, 5), 0) << "node " << ctx.id();
  });
  EXPECT_EQ(*system.zero_frame(), std::vector<uint8_t>(options.page_size, 0));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ZeroFrameTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

class PageCacheNoticeTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PageCacheNoticeTest, WriteNoticeInvalidatesACachedReadablePage) {
  DsmOptions options = Options(2, GetParam(), 256);
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");
  std::atomic<bool> read_done{false};
  std::atomic<bool> written{false};

  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      x.Set(ctx, 1);
    }
    ctx.Barrier();
    if (ctx.id() == 1) {
      EXPECT_EQ(x.Get(ctx), 1);  // Fetch: the page is cached readable.
      EXPECT_EQ(x.Get(ctx), 1);  // A hit.
      read_done = true;
      ServeUntil(ctx, written);
      ctx.Lock(0);  // Node 0's write notice arrives with the grant.
      EXPECT_EQ(x.Get(ctx), 2);
      ctx.Unlock(0);
    } else {
      ServeUntil(ctx, read_done);
      ctx.Lock(0);
      x.Set(ctx, 2);
      ctx.Unlock(0);
      written = true;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Protocols, PageCacheNoticeTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

// One node writes and reads kWords words of one page in an interval, twice,
// with an Unlock/Lock boundary between (which adds one empty interval).
// Every access must be charged and counted as if nothing were cached, each
// touched interval must carry exactly one read notice for the page, and
// every touched word must have its bits.
void ExpectExactAccessAccounting(ProtocolKind protocol, WriteDetection writes) {
  constexpr int kWords = 48;
  constexpr int kSides = 2;
  DsmOptions options = Options(1, protocol, 256);
  options.write_detection = writes;
  options.postmortem_trace = true;  // Keeps every record and bitmap pair.
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 64);  // One page.
  const PageId page = static_cast<PageId>(arr.addr(0) / options.page_size);
  const bool instrumented_writes = writes == WriteDetection::kInstrumentation;

  system.Run([&](NodeContext& ctx) {
    ctx.Lock(0);
    const AccessCounters before = ctx.access_counters();
    const NodeTiming& timing = std::as_const(ctx).timing();
    const NodeTiming timing_before = timing;
    for (int side = 0; side < kSides; ++side) {
      if (side > 0) {
        ctx.Unlock(0);
        ctx.Lock(0);
      }
      // Write first: a pair the write created must not let a read hit
      // before the page's read notice exists.
      for (int i = 0; i < kWords; ++i) {
        arr.Set(ctx, i, (side + 1) * 100 + i);
        EXPECT_EQ(arr.Get(ctx, i), (side + 1) * 100 + i);
      }
    }
    const AccessCounters after = ctx.access_counters();
    const uint64_t reads = kSides * kWords;
    const uint64_t writes_counted = instrumented_writes ? kSides * kWords : 0;
    EXPECT_EQ(after.instrumented_calls - before.instrumented_calls, reads + writes_counted);
    EXPECT_EQ(after.shared_accesses - before.shared_accesses, reads + writes_counted);
    EXPECT_EQ(after.shared_reads - before.shared_reads, reads);
    EXPECT_EQ(after.shared_writes - before.shared_writes, writes_counted);
    EXPECT_EQ(after.private_accesses, before.private_accesses);

    const CostParams& costs = options.costs;
    auto delta = [&](Bucket bucket) {
      return timing.overhead_ns(bucket) - timing_before.overhead_ns(bucket);
    };
    const double calls = static_cast<double>(reads + writes_counted);
    EXPECT_DOUBLE_EQ(delta(Bucket::kProcCall), calls * costs.proc_call_ns);
    EXPECT_DOUBLE_EQ(delta(Bucket::kAccessCheck), calls * costs.access_check_ns);
    // One read notice per side, plus the two interval ends of Unlock and
    // Lock; a single node sends no messages.
    EXPECT_DOUBLE_EQ(delta(Bucket::kCvmMods), (kSides + 2) * costs.notice_setup_ns);
    ctx.Unlock(0);
  });

  int records_reading_page = 0;
  system.trace().ForEachRecord([&](const IntervalRecord& record) {
    const auto count = std::count(record.read_pages.begin(), record.read_pages.end(), page);
    if (count > 0) {
      EXPECT_EQ(count, 1) << record.ToString();
      EXPECT_EQ(std::count(record.write_pages.begin(), record.write_pages.end(), page), 1)
          << record.ToString();
      ++records_reading_page;
    }
  });
  EXPECT_EQ(records_reading_page, kSides);

  std::vector<uint32_t> touched(kWords);
  for (int i = 0; i < kWords; ++i) {
    touched[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
  }
  int pairs = 0;
  system.trace().ForEachBitmapPair(
      [&](const IntervalId& interval, PageId pair_page, const PageAccessBitmaps& pair) {
        if (pair_page != page) {
          return;
        }
        EXPECT_EQ(pair.read.SetBits(), touched) << interval.ToString();
        EXPECT_EQ(pair.write.SetBits(), touched) << interval.ToString();
        ++pairs;
      });
  EXPECT_EQ(pairs, kSides);
}

TEST(DsmPageCacheTest, HitsKeepExactAccountingWithInstrumentedWrites) {
  ExpectExactAccessAccounting(ProtocolKind::kSingleWriterLrc, WriteDetection::kInstrumentation);
}

// §6.5: stores are not instrumented; write bits come from the diffs.
TEST(DsmPageCacheTest, HitsKeepExactAccountingWithDiffDerivedWrites) {
  ExpectExactAccessAccounting(ProtocolKind::kMultiWriterHomeLrc, WriteDetection::kDiffs);
}

TEST(DsmPageCacheTest, WatchpointSeesEveryAccessToAValidPage) {
  constexpr int kRounds = 20;
  DsmOptions options = Options(2, ProtocolKind::kSingleWriterLrc, 256);
  DsmSystem probe(options);
  const GlobalAddr watched =
      SharedArray<int32_t>::Alloc(probe, "arr", 64).addr(3);  // Same layout below.
  options.watch = Watchpoint{watched, kWordSize, -1};
  DsmSystem system(options);
  auto arr = SharedArray<int32_t>::Alloc(system, "arr", 64);
  ASSERT_EQ(arr.addr(3), watched);
  const PageId page = static_cast<PageId>(watched / options.page_size);

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() != 0) {
      return;
    }
    for (int round = 0; round < kRounds; ++round) {
      arr.Set(ctx, 3, round);
      EXPECT_EQ(arr.Get(ctx, 3), round);
      EXPECT_EQ(arr.Get(ctx, 4), 0);  // Same page, outside the watch.
      EXPECT_TRUE(ctx.page_table().Writable(page));
    }
  });
  int reads = 0;
  int writes = 0;
  for (const WatchHit& hit : result.watch_hits) {
    EXPECT_EQ(hit.node, 0);
    EXPECT_EQ(hit.addr, watched);
    ++(hit.is_write ? writes : reads);
  }
  EXPECT_EQ(reads, kRounds);
  EXPECT_EQ(writes, kRounds);
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
