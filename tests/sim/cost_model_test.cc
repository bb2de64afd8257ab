// Tests for the simulated-time model: clock advancement, Lamport receive
// rule, Figure 3's overhead-bucket attribution, picosecond rounding, and the
// counted access charges, which must match per-access charging to the ps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/common/rng.h"
#include "src/sim/cost_model.h"

namespace cvm {
namespace {

TEST(NodeTimingTest, ChargeAdvancesClockAndBucket) {
  NodeTiming timing;
  EXPECT_EQ(timing.now_ps(), 0);
  timing.Charge(Bucket::kNone, 100);
  timing.Charge(Bucket::kProcCall, 40);
  timing.Charge(Bucket::kProcCall, 10);
  timing.Charge(Bucket::kBitmaps, 5);
  EXPECT_EQ(timing.now_ns(), 155);
  EXPECT_EQ(timing.overhead_ns(Bucket::kProcCall), 50);
  EXPECT_EQ(timing.overhead_ns(Bucket::kBitmaps), 5);
  EXPECT_EQ(timing.overhead_ns(Bucket::kAccessCheck), 0);
}

TEST(NodeTimingTest, ChargesRoundOnceToPicoseconds) {
  NodeTiming timing;
  timing.Charge(Bucket::kBitmaps, 1.6 * 3);  // 4.800000000000001 in binary.
  timing.Charge(Bucket::kBitmaps, 0.0004);   // Below half a ps: nothing.
  timing.Charge(Bucket::kBitmaps, 0.0006);   // Above it: one ps.
  EXPECT_EQ(timing.now_ps(), 4801);
  EXPECT_EQ(timing.overhead_ps(Bucket::kBitmaps), 4801);
  EXPECT_EQ(timing.now_ns(), 4.801);
}

TEST(NodeTimingTest, ObserveIsMonotone) {
  NodeTiming timing;
  timing.Charge(Bucket::kNone, 100);
  timing.ObserveAtLeast(50'000);  // In the past: no effect.
  EXPECT_EQ(timing.now_ps(), 100'000);
  timing.ObserveAtLeast(400'123);  // Lamport receive rule, to the ps.
  EXPECT_EQ(timing.now_ps(), 400'123);
  EXPECT_EQ(timing.overhead_ps(Bucket::kBitmaps), 0);  // A jump is no overhead.
}

TEST(NodeTimingTest, ChargeUntilAttributesTheWait) {
  NodeTiming timing;
  timing.Charge(Bucket::kNone, 100);
  timing.ChargeUntil(Bucket::kBitmaps, 50'000);  // Passed: no wait.
  timing.ChargeUntil(Bucket::kBitmaps, 130'500);
  EXPECT_EQ(timing.now_ps(), 130'500);
  EXPECT_EQ(timing.overhead_ps(Bucket::kBitmaps), 30'500);
}

TEST(NodeTimingTest, NegativeChargeAborts) {
  NodeTiming timing;
  EXPECT_DEATH(timing.Charge(Bucket::kNone, -1), "CHECK failed");
}

TEST(NodeTimingTest, NegativeInlineCostAbortsAtSetup) {
  CostParams costs;
  costs.access_check_ns = -1;
  EXPECT_DEATH(NodeTiming timing(costs), "CHECK failed");
}

// Per-access charging, the reference for counted accesses: every access is
// one to three adds of its rounded costs, in the order base, Proc Call,
// Access Check.
struct EagerClock {
  int64_t now = 0;
  std::array<int64_t, kNumBuckets> buckets = {};

  void Charge(Bucket bucket, double ns) {
    const int64_t ps = NsToPs(ns);
    now += ps;
    if (bucket != Bucket::kNone) {
      buckets[static_cast<int>(bucket)] += ps;
    }
  }
  void Access(const CostParams& costs, bool instrumented) {
    Charge(Bucket::kNone, costs.base_access_ns);
    if (instrumented) {
      Charge(Bucket::kProcCall, costs.proc_call_ns);
      Charge(Bucket::kAccessCheck, costs.access_check_ns);
    }
  }
  void Compute(const CostParams& costs, uint64_t units) {
    for (uint64_t i = 0; i < units; ++i) {
      Charge(Bucket::kNone, costs.compute_unit_ns);
    }
  }
  void ObserveAtLeast(int64_t t) { now = std::max(now, t); }
};

// Every reader of `timing` must return the reference's values.
void ExpectSame(const NodeTiming& timing, const EagerClock& ref, int step) {
  ASSERT_EQ(timing.now_ps(), ref.now) << "step " << step;
  ASSERT_EQ(timing.now_ns(), PsToNs(ref.now)) << "step " << step;
  for (int b = 0; b < kNumBuckets; ++b) {
    const Bucket bucket = static_cast<Bucket>(b);
    ASSERT_EQ(timing.overhead_ps(bucket), ref.buckets[b])
        << "step " << step << ", bucket " << BucketName(bucket);
    ASSERT_EQ(timing.overhead_ns(bucket), PsToNs(ref.buckets[b]))
        << "step " << step << ", bucket " << BucketName(bucket);
  }
}

// One seeded random sequence of counted accesses, compute, integral and
// fractional charges and Lamport jumps, read at random points.
void RunAgainstEagerClock(const CostParams& costs, uint64_t seed, int steps) {
  Rng rng(seed);
  NodeTiming timing(costs);
  EagerClock ref;
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.Below(100);
    if (op < 45) {
      const bool instrumented = rng.Chance(0.7);
      timing.CountAccess(instrumented);
      ref.Access(costs, instrumented);
    } else if (op < 65) {
      const uint64_t units = rng.Below(64);
      timing.CountCompute(units);
      ref.Compute(costs, units);
    } else if (op < 80) {
      // Integral charge to any bucket (faults, messages, notices, ...).
      const Bucket bucket = static_cast<Bucket>(rng.Below(kNumBuckets + 1));
      const double ns = static_cast<double>(rng.Below(20000));
      timing.Charge(bucket, ns);
      ref.Charge(bucket, ns);
    } else if (op < 87) {
      // Fractional charge: the 1.6 ns/word bitmap compares, now and then to
      // the Proc Call or Access Check bucket as well.
      const Bucket bucket = rng.Chance(0.8) ? Bucket::kBitmaps
                                            : static_cast<Bucket>(rng.Below(kNumBuckets + 1));
      const double ns = 1.6 * static_cast<double>(rng.Below(2048));
      timing.Charge(bucket, ns);
      ref.Charge(bucket, ns);
    } else {
      // Lamport jumps: into the past, to a whole ns ahead, or to a sub-ns
      // time ahead (a message stamp plus its cost).
      int64_t t = ref.now;
      const uint64_t kind = rng.Below(3);
      if (kind == 0) {
        t = ref.now - static_cast<int64_t>(rng.Below(1'000'000));
      } else if (kind == 1) {
        t = ref.now / 1000 * 1000 + 1000 * static_cast<int64_t>(1 + rng.Below(100000));
      } else {
        t = ref.now + 60'000'000 + static_cast<int64_t>(1 + rng.Below(999)) +
            52'000 * static_cast<int64_t>(rng.Below(100));
      }
      timing.ObserveAtLeast(t);
      ref.ObserveAtLeast(t);
    }
    if (rng.Chance(0.25)) {
      ASSERT_NO_FATAL_FAILURE(ExpectSame(timing, ref, step)) << "seed " << seed;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSame(timing, ref, steps)) << "seed " << seed;
}

TEST(CountedAccessTest, MatchesEagerChargingBitForBit) {
  const CostParams defaults;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunAgainstEagerClock(defaults, seed, 4000));
  }
}

TEST(CountedAccessTest, MatchesEagerChargingWithOtherCosts) {
  CostParams odd;  // Integral, but not the defaults.
  odd.base_access_ns = 7;
  odd.proc_call_ns = 1;
  odd.access_check_ns = 0;
  odd.compute_unit_ns = 33;
  CostParams fractional;  // Sub-ns costs count too.
  fractional.base_access_ns = 12.5;
  fractional.proc_call_ns = 0.1;
  for (uint64_t seed = 100; seed < 110; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunAgainstEagerClock(odd, seed, 4000));
    ASSERT_NO_FATAL_FAILURE(RunAgainstEagerClock(fractional, seed, 4000));
  }
}

TEST(CountedAccessTest, LongRunsOfAccessesFoldExactly) {
  // A million pending accesses folded by a fractional charge, then a
  // million more from the fractional clock it leaves.
  const CostParams costs;
  NodeTiming timing(costs);
  EagerClock ref;
  for (int i = 0; i < 1000000; ++i) {
    timing.CountAccess(i % 3 != 0);
    ref.Access(costs, i % 3 != 0);
  }
  timing.Charge(Bucket::kBitmaps, 1.6 * 17);
  ref.Charge(Bucket::kBitmaps, 1.6 * 17);
  ExpectSame(timing, ref, 1);
  for (int i = 0; i < 1000000; ++i) {
    timing.CountAccess(true);
    ref.Access(costs, true);
    timing.CountCompute(16);
    ref.Compute(costs, 16);
  }
  ExpectSame(timing, ref, 2);
}

TEST(CountedAccessTest, CopiesSeePendingCounts) {
  const CostParams costs;
  NodeTiming a(costs);
  a.CountAccess(true);
  a.CountAccess(false);
  const NodeTiming copy = a;
  EXPECT_EQ(copy.now_ns(), 2 * costs.base_access_ns + costs.proc_call_ns + costs.access_check_ns);
  EXPECT_EQ(copy.overhead_ns(Bucket::kProcCall), costs.proc_call_ns);
  EXPECT_EQ(copy.overhead_ns(Bucket::kAccessCheck), costs.access_check_ns);
}

TEST(CostParamsTest, MessageCostIsAffineInBytes) {
  CostParams costs;
  costs.msg_latency_ns = 1000;
  costs.per_byte_ns = 2;
  EXPECT_DOUBLE_EQ(costs.MessageCost(0), 1000);
  EXPECT_DOUBLE_EQ(costs.MessageCost(500), 2000);
}

TEST(BucketTest, NamesMatchFigure3) {
  EXPECT_STREQ(BucketName(Bucket::kCvmMods), "CVM Mods");
  EXPECT_STREQ(BucketName(Bucket::kProcCall), "Proc Call");
  EXPECT_STREQ(BucketName(Bucket::kAccessCheck), "Access Check");
  EXPECT_STREQ(BucketName(Bucket::kIntervals), "Intervals");
  EXPECT_STREQ(BucketName(Bucket::kBitmaps), "Bitmaps");
}

}  // namespace
}  // namespace cvm
