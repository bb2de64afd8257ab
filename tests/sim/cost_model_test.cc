// Tests for the simulated-time model: clock advancement, Lamport receive
// rule, Figure 3's overhead-bucket attribution, and the counted access
// charges, which must match per-access charging bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/rng.h"
#include "src/sim/cost_model.h"

namespace cvm {
namespace {

TEST(NodeTimingTest, ChargeAdvancesClockAndBucket) {
  NodeTiming timing;
  EXPECT_EQ(timing.now_ns(), 0);
  timing.Charge(Bucket::kNone, 100);
  timing.Charge(Bucket::kProcCall, 40);
  timing.Charge(Bucket::kProcCall, 10);
  timing.Charge(Bucket::kBitmaps, 5);
  EXPECT_DOUBLE_EQ(timing.now_ns(), 155);
  EXPECT_DOUBLE_EQ(timing.overhead_ns(Bucket::kProcCall), 50);
  EXPECT_DOUBLE_EQ(timing.overhead_ns(Bucket::kBitmaps), 5);
  EXPECT_DOUBLE_EQ(timing.overhead_ns(Bucket::kAccessCheck), 0);
  EXPECT_DOUBLE_EQ(timing.total_overhead_ns(), 55);  // kNone excluded.
}

TEST(NodeTimingTest, ObserveIsMonotone) {
  NodeTiming timing;
  timing.Charge(Bucket::kNone, 100);
  timing.ObserveAtLeast(50);  // In the past: no effect.
  EXPECT_DOUBLE_EQ(timing.now_ns(), 100);
  timing.ObserveAtLeast(400);  // Lamport receive rule.
  EXPECT_DOUBLE_EQ(timing.now_ns(), 400);
}

TEST(NodeTimingTest, AddOverheadFromAccumulatesBucketsOnly) {
  NodeTiming a;
  NodeTiming b;
  a.Charge(Bucket::kIntervals, 7);
  b.Charge(Bucket::kIntervals, 3);
  b.Charge(Bucket::kNone, 1000);
  a.AddOverheadFrom(b);
  EXPECT_DOUBLE_EQ(a.overhead_ns(Bucket::kIntervals), 10);
  EXPECT_DOUBLE_EQ(a.now_ns(), 7);  // Clock untouched.
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

// The per-access charging NodeTiming did before counted accesses: every
// access is one to three adds, in the order base, Proc Call, Access Check.
struct EagerClock {
  double now = 0;
  std::array<double, kNumBuckets> buckets = {};

  void Charge(Bucket bucket, double ns) {
    now += ns;
    if (bucket != Bucket::kNone) {
      buckets[static_cast<int>(bucket)] += ns;
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
    Charge(Bucket::kNone, costs.compute_unit_ns * static_cast<double>(units));
  }
  void ObserveAtLeast(double t) {
    if (t > now) {
      now = t;
    }
  }
  double Total() const {
    double total = 0;
    for (double v : buckets) {
      total += v;
    }
    return total;
  }
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

constexpr double kTwoTo52 = 4503599627370496.0;

// Every reader of `timing` must return the reference's exact bits.
void ExpectSameBits(const NodeTiming& timing, const EagerClock& ref, int step) {
  ASSERT_EQ(Bits(timing.now_ns()), Bits(ref.now))
      << "step " << step << ": " << timing.now_ns() << " vs " << ref.now;
  for (int b = 0; b < kNumBuckets; ++b) {
    ASSERT_EQ(Bits(timing.overhead_ns(static_cast<Bucket>(b))), Bits(ref.buckets[b]))
        << "step " << step << ", bucket " << BucketName(static_cast<Bucket>(b));
  }
  ASSERT_EQ(Bits(timing.total_overhead_ns()), Bits(ref.Total())) << "step " << step;
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
      // Lamport jumps: into the past, to an integral time ahead, to a
      // fractional one ahead, or just below 2^52, where the spacing of
      // doubles is 0.5 and each add past 2^52 rounds a half away.
      double t = ref.now;
      const uint64_t kind = rng.Below(4);
      if (kind == 0) {
        t = ref.now - static_cast<double>(rng.Below(1000));
      } else if (kind == 1) {
        t = std::floor(ref.now) + static_cast<double>(1 + rng.Below(100000));
      } else if (kind == 2) {
        t = ref.now + 60000.5 + 52 * 3.3 * static_cast<double>(rng.Below(100));
      } else {
        t = kTwoTo52 - 0.5 - 2 * static_cast<double>(rng.Below(8));
      }
      timing.ObserveAtLeast(t);
      ref.ObserveAtLeast(t);
    }
    if (rng.Chance(0.25)) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameBits(timing, ref, step)) << "seed " << seed;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameBits(timing, ref, steps)) << "seed " << seed;
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
  CostParams fractional;  // Never counts: every access charges at once.
  fractional.base_access_ns = 12.5;
  fractional.proc_call_ns = 0.1;
  for (uint64_t seed = 100; seed < 110; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunAgainstEagerClock(odd, seed, 4000));
    ASSERT_NO_FATAL_FAILURE(RunAgainstEagerClock(fractional, seed, 4000));
  }
}

TEST(CountedAccessTest, FractionalClockChargesAtOnce) {
  // From 2^52 - 0.5, two 7 ns accesses charged one by one round to
  // 2^52 + 13 (6.5 rounds to 6, then + 7); one folded 14 ns add would give
  // 2^52 + 14 (13.5 rounds to 14). Counting must be off here.
  CostParams costs;
  costs.base_access_ns = 7;
  NodeTiming timing(costs);
  EagerClock ref;
  timing.ObserveAtLeast(kTwoTo52 - 0.5);
  ref.ObserveAtLeast(kTwoTo52 - 0.5);
  for (int i = 0; i < 2; ++i) {
    timing.CountAccess(false);
    ref.Access(costs, false);
  }
  EXPECT_EQ(ref.now, kTwoTo52 + 13);
  ExpectSameBits(timing, ref, 0);
}

TEST(CountedAccessTest, LongRunsOfAccessesFoldExactly) {
  // A million pending accesses folded by one charge, then a million more
  // after a fractional charge has switched counting off.
  const CostParams costs;
  NodeTiming timing(costs);
  EagerClock ref;
  for (int i = 0; i < 1000000; ++i) {
    timing.CountAccess(i % 3 != 0);
    ref.Access(costs, i % 3 != 0);
  }
  timing.Charge(Bucket::kBitmaps, 1.6 * 16);
  ref.Charge(Bucket::kBitmaps, 1.6 * 16);
  ExpectSameBits(timing, ref, 1);
  for (int i = 0; i < 1000000; ++i) {
    timing.CountAccess(true);
    ref.Access(costs, true);
    timing.CountCompute(16);
    ref.Compute(costs, 16);
  }
  ExpectSameBits(timing, ref, 2);
}

TEST(CountedAccessTest, CopiesAndOverheadTransfersSeePendingCounts) {
  const CostParams costs;
  NodeTiming a(costs);
  a.CountAccess(true);
  a.CountAccess(false);
  const NodeTiming copy = a;
  EXPECT_EQ(copy.now_ns(), 2 * costs.base_access_ns + costs.proc_call_ns + costs.access_check_ns);
  NodeTiming b(costs);
  b.AddOverheadFrom(a);
  EXPECT_EQ(b.overhead_ns(Bucket::kProcCall), costs.proc_call_ns);
  EXPECT_EQ(b.overhead_ns(Bucket::kAccessCheck), costs.access_check_ns);
  EXPECT_EQ(b.now_ns(), 0);  // Clock untouched.
}

TEST(CountedAccessTest, RefusesToRoundPast2To53) {
  NodeTiming timing;
  timing.ObserveAtLeast(9007199254740992.0 - 10);  // 2^53 - 10 ns.
  timing.CountAccess(true);
  EXPECT_DEATH(timing.Charge(Bucket::kNone, 1), "exact range");
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
