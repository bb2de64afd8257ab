// Tests for the ATOM substitution: the runtime access filter and the static
// classifier over synthetic binary images (§5.1, Table 2).
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/instr/access_filter.h"
#include "src/instr/binary_image.h"

namespace cvm {
namespace {

TEST(AccessFilterTest, ClassifiesSharedAndPrivate) {
  AccessFilter filter(1024, 8 * 1024);
  // Shared access: page/word decomposition.
  auto r = filter.OnAccess(SharedVa(1024 + 8), /*is_write=*/false);
  EXPECT_TRUE(r.shared);
  EXPECT_EQ(r.page, 1);
  EXPECT_EQ(r.word, 2u);
  // Private heap access.
  auto p = filter.OnAccess(kPrivateHeapBase + 128, /*is_write=*/true);
  EXPECT_FALSE(p.shared);
  // Past the end of the shared segment: private.
  auto q = filter.OnAccess(SharedVa(8 * 1024), false);
  EXPECT_FALSE(q.shared);

  const AccessCounters& c = filter.counters();
  EXPECT_EQ(c.instrumented_calls, 3u);
  EXPECT_EQ(c.shared_accesses, 1u);
  EXPECT_EQ(c.private_accesses, 2u);
  EXPECT_EQ(c.shared_reads, 1u);
  EXPECT_EQ(c.shared_writes, 0u);
}

TEST(AccessFilterTest, DerivedCountersMatchDirectCounts) {
  // The filter keeps one counter per call (shared read, shared write,
  // private) and derives the totals; they must equal counting every field
  // directly, the way the analysis routine used to.
  constexpr uint64_t kPage = 1024;
  constexpr uint64_t kShared = 16 * kPage;
  AccessFilter filter(kPage, kShared);
  AccessCounters direct;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const bool is_write = rng.Chance(0.4);
    const uint64_t kind = rng.Below(4);
    bool shared = false;
    if (kind == 0) {
      // Page-cache hit: already known to be shared.
      filter.CountShared(is_write);
      shared = true;
    } else {
      // A shared, private-heap, below-segment or past-the-end address.
      const uint64_t va = kind == 1   ? SharedVa(rng.Below(kShared))
                          : kind == 2 ? kPrivateHeapBase + rng.Below(1 << 20)
                                      : (rng.Chance(0.5) ? rng.Below(kSharedSegmentBase)
                                                         : SharedVa(kShared + rng.Below(64)));
      shared = filter.OnAccess(va, is_write).shared;
      EXPECT_EQ(shared, kind == 1);
    }
    ++direct.instrumented_calls;
    if (!shared) {
      ++direct.private_accesses;
      continue;
    }
    ++direct.shared_accesses;
    ++(is_write ? direct.shared_writes : direct.shared_reads);
  }
  const AccessCounters derived = filter.counters();
  EXPECT_EQ(derived.instrumented_calls, direct.instrumented_calls);
  EXPECT_EQ(derived.shared_accesses, direct.shared_accesses);
  EXPECT_EQ(derived.private_accesses, direct.private_accesses);
  EXPECT_EQ(derived.shared_reads, direct.shared_reads);
  EXPECT_EQ(derived.shared_writes, direct.shared_writes);
  EXPECT_GT(direct.shared_writes, 0u);
  EXPECT_GT(direct.private_accesses, 0u);
}

TEST(ClassifierTest, EliminationRulesMatchCategories) {
  InstructionMix mix;
  mix.stack = 100;
  mix.static_data = 200;
  mix.library = 300;
  mix.cvm = 50;
  mix.candidate = 40;
  const BinaryImage image = SynthesizeBinary("test", mix, 1);
  EXPECT_EQ(image.TotalLoadsStores(), 690u);

  const ClassifyResult result = StaticClassifier().Classify(image);
  EXPECT_EQ(result.stack, 100u);
  EXPECT_EQ(result.static_data, 200u);
  EXPECT_EQ(result.library, 300u);
  EXPECT_EQ(result.cvm, 50u);
  EXPECT_EQ(result.instrumented, 40u);
  EXPECT_EQ(result.Total(), 690u);
}

TEST(ClassifierTest, InBlockProvablyPrivateCandidatesAreEliminated) {
  InstructionMix mix;
  mix.candidate = 1000;
  mix.candidate_private_block = 0.5;
  const BinaryImage image = SynthesizeBinary("t", mix, 2);
  const ClassifyResult result = StaticClassifier().Classify(image);
  // ~half eliminated (deterministic given the seed).
  EXPECT_GT(result.static_data, 400u);
  EXPECT_LT(result.static_data, 600u);
  EXPECT_EQ(result.static_data + result.instrumented, 1000u);
}

TEST(ClassifierTest, InterproceduralAnalysisEliminatesMore) {
  // §6.5: inter-procedural def-use tracking resolves more candidates as
  // provably private, reducing "false" instrumentation.
  InstructionMix mix;
  mix.candidate = 1000;
  mix.candidate_private_block = 0.1;
  mix.candidate_private_interproc = 0.6;
  const BinaryImage image = SynthesizeBinary("t", mix, 3);
  const ClassifyResult base = StaticClassifier(/*interprocedural=*/false).Classify(image);
  const ClassifyResult ip = StaticClassifier(/*interprocedural=*/true).Classify(image);
  EXPECT_LT(ip.instrumented, base.instrumented);
  EXPECT_EQ(ip.Total(), base.Total());
}

TEST(ClassifierTest, PaperMixesEliminateOverNinetyNinePercent) {
  // §5.1's headline: over 99% of loads and stores are statically eliminated.
  const struct {
    const char* name;
    InstructionMix mix;
  } apps[] = {
      {"FFT", {1285, 1496, 124716, 3910, 261, 0.0, 0.6}},
      {"SOR", {342, 1304, 48717, 3910, 126, 0.0, 0.55}},
      {"TSP", {244, 1213, 48717, 3910, 350, 0.0, 0.68}},
      {"Water", {649, 1919, 124716, 3910, 528, 0.0, 0.62}},
  };
  for (const auto& app : apps) {
    const BinaryImage image = SynthesizeBinary(app.name, app.mix, 42);
    const ClassifyResult result = StaticClassifier().Classify(image);
    EXPECT_GT(result.EliminatedFraction(), 0.99) << app.name;
    EXPECT_EQ(result.instrumented, app.mix.candidate) << app.name;
  }
}

}  // namespace
}  // namespace cvm
