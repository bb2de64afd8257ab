// Tests for the small common utilities: table printer, deterministic RNG,
// the flat id set, and the CVM_CHECK macros.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/check.h"
#include "src/common/flat_id_set.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/types.h"

namespace cvm {
namespace {

TEST(TablePrinterTest, AlignsColumnsAndPadsRows) {
  TablePrinter table({"a", "long header", "c"});
  table.AddRow({"xxxxx", "1"});
  table.AddRow({"y", "2", "3"});
  const std::string out = table.ToString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Every line has the same width.
  size_t width = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fixed(2.456, 2), "2.46");
  EXPECT_EQ(TablePrinter::Fixed(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Percent(0.1234, 1), "12.3%");
  EXPECT_EQ(TablePrinter::Percent(0.0, 0), "0%");
  EXPECT_EQ(TablePrinter::WithThousands(0), "0");
  EXPECT_EQ(TablePrinter::WithThousands(999), "999");
  EXPECT_EQ(TablePrinter::WithThousands(1000), "1,000");
  EXPECT_EQ(TablePrinter::WithThousands(1234567), "1,234,567");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u) << "all values of a small range should appear";
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(FlatIdSetTest, BehavesLikeSortedSetWithoutReallocating) {
  FlatIdSet<PageId> set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(1));
  EXPECT_TRUE(set.Insert(9));
  EXPECT_FALSE(set.Insert(5));  // Duplicate.
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.ids(), (std::vector<PageId>{1, 5, 9}));  // Ascending, like std::set.

  const size_t capacity = set.Capacity();
  set.Clear();
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Capacity(), capacity);  // Clear keeps the buffer.
  EXPECT_TRUE(set.Insert(3));
  EXPECT_EQ(set.Capacity(), capacity);  // Steady-state insert: no realloc.
}

TEST(CheckTest, PassingCheckIsSilent) {
  CVM_CHECK(true) << "never evaluated";
  CVM_CHECK_EQ(1, 1);
  CVM_CHECK_LT(1, 2);
  SUCCEED();
}

TEST(CheckDeathTest, FailingChecksAbortWithMessage) {
  EXPECT_DEATH(CVM_CHECK(false) << "detail 42", "CHECK failed.*detail 42");
  EXPECT_DEATH(CVM_CHECK_EQ(1, 2), "CHECK failed");
  EXPECT_DEATH(CVM_CHECK_GE(1, 2), "1 vs 2");
}

}  // namespace
}  // namespace cvm
