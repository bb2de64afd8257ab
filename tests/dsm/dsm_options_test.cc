// Configuration validation and lifecycle misuse: every invalid setup must
// abort loudly rather than run wrong.
#include <gtest/gtest.h>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

DsmOptions Valid() {
  DsmOptions options;
  options.num_nodes = 2;
  options.page_size = 256;
  options.max_shared_bytes = 16 * 1024;
  return options;
}

TEST(DsmOptionsDeathTest, DiffDetectionRequiresMultiWriter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DsmOptions options = Valid();
  options.protocol = ProtocolKind::kSingleWriterLrc;
  options.write_detection = WriteDetection::kDiffs;
  EXPECT_DEATH({ DsmSystem system(options); }, "multi-writer");
}

TEST(DsmOptionsDeathTest, ZeroNodesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DsmOptions options = Valid();
  options.num_nodes = 0;
  EXPECT_DEATH({ DsmSystem system(options); }, "CHECK failed");
}

TEST(DsmOptionsDeathTest, PageSizeMustBeAPowerOfTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DsmOptions options = Valid();
  options.page_size = 3072;
  EXPECT_DEATH({ DsmSystem system(options); }, "not a power of two");
}

TEST(DsmOptionsDeathTest, SecondRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DsmSystem system(Valid());
        system.Run([](NodeContext&) {});
        system.Run([](NodeContext&) {});
      },
      "one Run\\(\\) per DsmSystem");
}

TEST(DsmOptionsDeathTest, AllocAfterRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DsmSystem system(Valid());
        system.Run([](NodeContext&) {});
        system.Alloc("late", 64);
      },
      "allocate shared data before Run\\(\\); one Run\\(\\) per DsmSystem");
}

TEST(DsmOptionsDeathTest, SegmentExhaustionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DsmSystem system(Valid());
        system.Alloc("huge", 17 * 1024);  // Exceeds max_shared_bytes.
      },
      "exhausted");
}

TEST(DsmOptionsTest, DetectionOffStillRunsCoherently) {
  DsmOptions options = Valid();
  options.race_detection = false;
  DsmSystem system(options);
  auto x = SharedVar<int32_t>::Alloc(system, "x");
  RunResult result = system.Run([&](NodeContext& ctx) {
    ctx.Lock(0);
    x.Set(ctx, x.Get(ctx) + 1);
    ctx.Unlock(0);
    ctx.Barrier();
    EXPECT_EQ(x.Get(ctx), 2);
  });
  EXPECT_TRUE(result.races.empty());
  EXPECT_EQ(result.access.instrumented_calls, 0u) << "no instrumentation when off";
  EXPECT_EQ(result.detector.interval_comparisons, 0u);
}

TEST(DsmOptionsTest, SingleNodeRunsAndFindsNoRaces) {
  DsmOptions options = Valid();
  options.num_nodes = 1;
  DsmSystem system(options);
  auto x = SharedArray<int32_t>::Alloc(system, "x", 32);
  RunResult result = system.Run([&](NodeContext& ctx) {
    for (int i = 0; i < 32; ++i) {
      x.Set(ctx, i, i);
    }
    ctx.Barrier();
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(x.Get(ctx, i), i);
    }
  });
  EXPECT_TRUE(result.races.empty()) << "one node cannot race with itself";
}

}  // namespace
}  // namespace cvm
