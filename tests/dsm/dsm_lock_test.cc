// Focused tests of the distributed lock manager: mutual exclusion under
// contention, token caching, multi-lock independence, interval counting
// around lock operations, liveness of a node blocked in Lock, and misuse
// aborts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions Options(int nodes) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = 256;
  options.max_shared_bytes = 256 * 1024;
  options.num_locks = 32;
  return options;
}

TEST(DsmLockTest, MutualExclusionUnderHeavyContention) {
  DsmOptions options = Options(8);
  DsmSystem system(options);
  auto counter = SharedVar<int32_t>::Alloc(system, "counter");
  auto in_section = SharedVar<int32_t>::Alloc(system, "in_section");
  constexpr int kRounds = 40;

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      counter.Set(ctx, 0);
      in_section.Set(ctx, 0);
    }
    ctx.Barrier();
    for (int i = 0; i < kRounds; ++i) {
      ctx.Lock(5);
      // Mutual exclusion witness: the flag must read 0, then 1 after we set
      // it, with no one else in between (shared memory is coherent inside
      // the critical section because the lock orders it).
      EXPECT_EQ(in_section.Get(ctx), 0);
      in_section.Set(ctx, 1);
      counter.Set(ctx, counter.Get(ctx) + 1);
      in_section.Set(ctx, 0);
      ctx.Unlock(5);
    }
    ctx.Barrier();
    if (ctx.id() == 0) {
      EXPECT_EQ(counter.Get(ctx), kRounds * ctx.num_nodes());
    }
  });
  EXPECT_TRUE(result.races.empty());
}

TEST(DsmLockTest, IndependentLocksDoNotSerializeButDoNotRace) {
  DsmOptions options = Options(4);
  DsmSystem system(options);
  auto slots = SharedArray<int32_t>::Alloc(system, "slots", 4);

  RunResult result = system.Run([&](NodeContext& ctx) {
    ctx.Barrier();
    // Node i increments slot i under lock i: fully independent.
    for (int round = 0; round < 20; ++round) {
      ctx.Lock(ctx.id());
      slots.Set(ctx, ctx.id(), slots.Get(ctx, ctx.id()) + 1);
      ctx.Unlock(ctx.id());
    }
    ctx.Barrier();
    if (ctx.id() == 0) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(slots.Get(ctx, i), 20);
      }
    }
  });
  // Slots share a page: everything here is false sharing, ordered per slot.
  EXPECT_TRUE(result.races.empty()) << result.races.front().ToString();
}

TEST(DsmLockTest, UncontendedReacquireUsesCachedToken) {
  DsmOptions options = Options(4);
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");

  RunResult result = system.Run([&](NodeContext& ctx) {
    ctx.Barrier();
    if (ctx.id() == 2) {
      for (int i = 0; i < 100; ++i) {
        ctx.Lock(7);
        x.Set(ctx, i);
        ctx.Unlock(7);
      }
    }
  });
  // After the first acquisition the token stays at node 2: at most a couple
  // of LockRequest messages for lock 7 in the whole run.
  auto it = result.net.messages_by_kind.find("LockRequest");
  const uint64_t requests = it == result.net.messages_by_kind.end() ? 0 : it->second;
  EXPECT_LE(requests, 4u);
  EXPECT_TRUE(result.races.empty());
}

TEST(DsmLockTest, LockPairCreatesTwoIntervals) {
  DsmOptions options = Options(2);
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");
  RunResult with_locks = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < 10; ++i) {
        ctx.Lock(0);
        x.Set(ctx, i);
        ctx.Unlock(0);
      }
    }
  });
  // Node 0: interval 0 + 2 per lock pair + 2 for the final barrier, node 1:
  // just the barrier's. "The same act that creates intervals also removes
  // many interval pairs from consideration."
  EXPECT_GE(with_locks.intervals_total, 2u * 10u);
}

// A grant carries its releaser's clock to the picosecond: the acquirer's
// clock is the release time plus the grant's message cost, exactly, though
// the release fell between two whole nanoseconds.
TEST(DsmLockTest, GrantCarriesTheReleaseTimeExactly) {
  DsmOptions options = Options(2);
  options.costs.compute_unit_ns = 40.25;
  DsmSystem system(options);
  std::atomic<int64_t> release_ps{-1};
  int64_t acquire_ps = 0;
  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      ctx.Lock(0);  // Node 0 manages lock 0: a local grant.
      ctx.Compute(1'000'001);  // Ends 250 ps into a ns, far ahead of node 1.
      ctx.Unlock(0);
      release_ps = std::as_const(ctx).timing().now_ps();
    } else {
      while (release_ps.load() < 0) {
        std::this_thread::yield();
      }
      ctx.Lock(0);
      acquire_ps = std::as_const(ctx).timing().now_ps();
      ctx.Unlock(0);
    }
  });
  ASSERT_EQ(result.net.messages_by_kind.at("LockGrant"), 1u);
  ASSERT_NE(release_ps % 1000, 0);
  const size_t grant_bytes = result.net.bytes_by_kind.at("LockGrant");
  EXPECT_EQ(acquire_ps, release_ps + NsToPs(options.costs.MessageCost(grant_bytes)));
}

// A node blocked in Lock must keep serving its inbox: node 0 waits for lock 0,
// which node 1 holds, and node 1 faults on pages homed on node 0 before it
// unlocks. If the wait parked without dispatching, node 1's fetches (and,
// under ERC, its update acks) would never be answered and the run would hang.
class DsmLockServingTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DsmLockServingTest, BlockedNodeKeepsServing) {
  DsmOptions options = Options(2);
  options.protocol = GetParam();
  DsmSystem system(options);
  constexpr size_t kPages = 16;
  const size_t words_per_page = options.page_size / kWordSize;
  auto data = SharedArray<int32_t>::Alloc(system, "data", kPages * words_per_page);
  // Eight of the array's pages whose home is node 0 (home = page % nodes).
  std::vector<size_t> home0_words;
  for (size_t p = 0; p < kPages && home0_words.size() < 8; ++p) {
    const GlobalAddr addr = data.addr(p * words_per_page);
    if ((addr / options.page_size) % static_cast<uint64_t>(options.num_nodes) == 0) {
      home0_words.push_back(p * words_per_page);
    }
  }
  ASSERT_EQ(home0_words.size(), 8u);

  RunResult result = system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 1) {
      ctx.Lock(0);
    }
    ctx.Barrier();
    if (ctx.id() == 0) {
      ctx.Lock(0);  // Blocks until node 1 unlocks.
      for (size_t i = 0; i < home0_words.size(); ++i) {
        EXPECT_EQ(data.Get(ctx, home0_words[i]), static_cast<int32_t>(100 + i));
      }
      ctx.Unlock(0);
    } else {
      // Give node 0 time to block in Lock before the faults reach it.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      for (size_t i = 0; i < home0_words.size(); ++i) {
        data.Set(ctx, home0_words[i], static_cast<int32_t>(100 + i));
      }
      ctx.Unlock(0);
    }
  });
  EXPECT_TRUE(result.races.empty()) << result.races.front().ToString();
}

std::string ProtocolName(const ::testing::TestParamInfo<ProtocolKind>& param_info) {
  return ProtocolKindName(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DsmLockServingTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         ProtocolName);

TEST(DsmLockDeathTest, UnlockWithoutHoldAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DsmOptions options = Options(2);
        DsmSystem system(options);
        system.Run([&](NodeContext& ctx) {
          if (ctx.id() == 0) {
            ctx.Unlock(3);  // Never acquired.
          }
        });
      },
      "not held");
}

TEST(DsmLockDeathTest, OutOfRangeLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DsmOptions options = Options(2);
        DsmSystem system(options);
        system.Run([&](NodeContext& ctx) { ctx.Lock(options.num_locks + 5); });
      },
      "CHECK failed");
}

}  // namespace
}  // namespace cvm
