// Unit and property tests for the word-granularity access bitmaps.
#include <gtest/gtest.h>

#include <bitset>

#include "src/common/bitmap.h"
#include "src/common/rng.h"

namespace cvm {
namespace {

TEST(BitmapTest, StartsEmpty) {
  Bitmap bm(1024);
  EXPECT_EQ(bm.size(), 1024u);
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.popcount(), 0u);
  for (uint32_t i = 0; i < 1024; i += 77) {
    EXPECT_FALSE(bm.Test(i));
  }
}

TEST(BitmapTest, PopCountMatchesBitset) {
  Rng rng(64);
  for (int i = 0; i < 10000; ++i) {
    // Sparse, dense and uniform words, so every count 0..64 is likely.
    uint64_t w = rng.Next();
    const uint64_t shape = rng.Below(3);
    if (shape == 0) {
      w &= rng.Next() & rng.Next();
    } else if (shape == 1) {
      w |= rng.Next() | rng.Next();
    }
    ASSERT_EQ(PopCount(w), std::bitset<64>(w).count()) << std::hex << w;
  }
  EXPECT_EQ(PopCount(0), 0u);
  EXPECT_EQ(PopCount(~uint64_t{0}), 64u);
}

TEST(BitmapTest, SetTestClear) {
  Bitmap bm(128);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(127);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(127));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.popcount(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.popcount(), 3u);
}

TEST(BitmapTest, IntersectionAcrossWordBoundaries) {
  Bitmap a(256);
  Bitmap b(256);
  a.Set(5);
  a.Set(64);
  a.Set(200);
  b.Set(64);
  b.Set(201);
  EXPECT_TRUE(a.Intersects(b));
  const std::vector<uint32_t> bits = a.IntersectionBits(b);
  ASSERT_EQ(bits.size(), 1u);
  EXPECT_EQ(bits[0], 64u);
}

TEST(BitmapTest, DisjointMapsDoNotIntersect) {
  Bitmap a(512);
  Bitmap b(512);
  for (uint32_t i = 0; i < 512; i += 2) {
    a.Set(i);
  }
  for (uint32_t i = 1; i < 512; i += 2) {
    b.Set(i);
  }
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_TRUE(a.IntersectionBits(b).empty());
}

TEST(BitmapTest, UnionAccumulates) {
  Bitmap a(64);
  Bitmap b(64);
  a.Set(1);
  b.Set(2);
  a.UnionWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_EQ(a.popcount(), 2u);
}

TEST(BitmapTest, WireRoundTrip) {
  Bitmap a(100);
  a.Set(0);
  a.Set(99);
  a.Set(37);
  Bitmap b = Bitmap::FromWords(100, a.words());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ByteSize(), 16u);  // 100 bits -> two 64-bit words.
}

TEST(BitmapTest, ToStringListsSetBits) {
  Bitmap a(64);
  a.Set(3);
  a.Set(40);
  EXPECT_EQ(a.ToString(), "{3,40}");
}

// Property: every Bitmap operation agrees with a bit-by-bit
// std::vector<bool> oracle, at sizes straddling the 64-bit word boundaries.
// The word loops rely on the bits past size() staying zero; comparing
// against a per-bit oracle catches any operation that breaks that.
std::vector<uint32_t> OracleSetBits(const std::vector<bool>& bits) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<bool> RandomBits(Rng& rng, uint32_t n, Bitmap* bitmap) {
  std::vector<bool> oracle(n, false);
  // Densities from empty to full, so both all-zero and all-ones words occur.
  const uint64_t percent = rng.Below(5) * 25;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Below(100) < percent) {
      bitmap->Set(i);
      oracle[i] = true;
    }
  }
  return oracle;
}

void ExpectMatchesOracle(const Bitmap& bitmap, const std::vector<bool>& oracle) {
  const std::vector<uint32_t> set = OracleSetBits(oracle);
  EXPECT_EQ(bitmap.SetBits(), set);
  EXPECT_EQ(bitmap.popcount(), set.size());
  EXPECT_EQ(bitmap.empty(), set.empty());
  for (uint32_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(bitmap.Test(i), oracle[i]) << "bit " << i;
  }
}

TEST(BitmapTest, PropertyIntersectionMatchesBruteForce) {
  Rng rng(1234);
  for (uint32_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 1024u}) {
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      Bitmap a(n);
      Bitmap b(n);
      const std::vector<bool> ra = RandomBits(rng, n, &a);
      const std::vector<bool> rb = RandomBits(rng, n, &b);
      ExpectMatchesOracle(a, ra);
      ExpectMatchesOracle(b, rb);

      std::vector<bool> both(n);
      std::vector<bool> either(n);
      for (uint32_t i = 0; i < n; ++i) {
        both[i] = ra[i] && rb[i];
        either[i] = ra[i] || rb[i];
      }
      const std::vector<uint32_t> common = OracleSetBits(both);
      EXPECT_EQ(a.IntersectionBits(b), common);
      EXPECT_EQ(b.IntersectionBits(a), common);
      EXPECT_EQ(a.Intersects(b), !common.empty());
      EXPECT_EQ(b.Intersects(a), !common.empty());

      Bitmap unioned = a;
      unioned.UnionWith(b);
      ExpectMatchesOracle(unioned, either);
      Bitmap intersected = a;
      intersected.IntersectWith(b);
      ExpectMatchesOracle(intersected, both);

      EXPECT_EQ(Bitmap::FromWords(n, a.words()), a);
    }
  }
}

TEST(BitmapDeathTest, FromWordsRejectsBitsPastSize) {
  EXPECT_TRUE(Bitmap::ValidWords(65, {~0ull, 1ull}));
  EXPECT_FALSE(Bitmap::ValidWords(65, {0ull, 2ull}));  // Bit 65 of a 65-bit map.
  EXPECT_FALSE(Bitmap::ValidWords(65, {0ull}));         // Wrong word count.
  EXPECT_TRUE(Bitmap::ValidWords(64, {~0ull}));
  EXPECT_DEATH(Bitmap::FromWords(100, {0ull, 1ull << 40}), "ValidWords");
}

}  // namespace
}  // namespace cvm
