// Round-trip and corruption tests for the binary trace-file format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "src/race/trace_io.h"

namespace cvm {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void FillTrace(PostMortemTrace& trace) {
  IntervalRecord r1;
  r1.id = IntervalId{0, 3};
  r1.vc = VectorClock(3);
  r1.vc.Set(0, 3);
  r1.vc.Set(2, 1);
  r1.epoch = 2;
  r1.write_pages = {4, 9};
  r1.read_pages = {1};
  trace.AddRecord(r1);

  IntervalRecord r2;
  r2.id = IntervalId{1, 7};
  r2.vc = VectorClock(3);
  r2.vc.Set(1, 7);
  r2.epoch = 2;
  r2.write_pages = {4};
  trace.AddRecord(r2);

  PageAccessBitmaps pair{Bitmap(64), Bitmap(64)};
  pair.read.Set(5);
  pair.write.Set(17);
  pair.write.Set(63);
  trace.AddBitmaps(r1.id, 4, pair);
  trace.AddBitmaps(r2.id, 4, pair);
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("roundtrip.cvmt");
  PostMortemTrace original;
  FillTrace(original);
  ASSERT_TRUE(WriteTraceFile(original, path));

  PostMortemTrace loaded;
  ASSERT_TRUE(ReadTraceFile(path, &loaded));
  EXPECT_EQ(loaded.NumRecords(), original.NumRecords());
  EXPECT_EQ(loaded.NumBitmapPairs(), original.NumBitmapPairs());
  EXPECT_EQ(loaded.TraceBytes(), original.TraceBytes());

  // Field-level comparison through the visitors.
  std::vector<IntervalRecord> records;
  loaded.ForEachRecord([&](const IntervalRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, (IntervalId{0, 3}));
  EXPECT_EQ(records[0].vc.At(2), 1);
  EXPECT_EQ(records[0].epoch, 2);
  EXPECT_EQ(records[0].write_pages, (std::vector<PageId>{4, 9}));
  EXPECT_EQ(records[0].read_pages, (std::vector<PageId>{1}));

  int pairs = 0;
  loaded.ForEachBitmapPair([&](const IntervalId&, PageId page, const PageAccessBitmaps& pair) {
    EXPECT_EQ(page, 4);
    EXPECT_TRUE(pair.read.Test(5));
    EXPECT_TRUE(pair.write.Test(17));
    EXPECT_TRUE(pair.write.Test(63));
    EXPECT_EQ(pair.write.popcount(), 2u);
    ++pairs;
  });
  EXPECT_EQ(pairs, 2);

  // And the analysis over the loaded trace equals the original's.
  const auto a1 = original.Analyze(16);
  const auto a2 = loaded.Analyze(16);
  ASSERT_EQ(a1.races.size(), a2.races.size());
  for (size_t i = 0; i < a1.races.size(); ++i) {
    EXPECT_TRUE(a1.races[i].SameRace(a2.races[i]));
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMissingFile) {
  PostMortemTrace out;
  EXPECT_FALSE(ReadTraceFile(TempPath("does_not_exist.cvmt"), &out));
}

TEST(TraceIoTest, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.cvmt");
  {
    std::ofstream f(path, std::ios::binary);
    const uint32_t junk[4] = {0xdeadbeef, 1, 0, 0};
    f.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  }
  PostMortemTrace out;
  EXPECT_FALSE(ReadTraceFile(path, &out));
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.cvmt");
  PostMortemTrace full;
  FillTrace(full);
  ASSERT_TRUE(WriteTraceFile(full, path));
  // Chop the file part-way through the bitmap section.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  }
  PostMortemTrace out;
  EXPECT_FALSE(ReadTraceFile(path, &out));
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsBitSetPastBitmapSize) {
  const std::string path = TempPath("trailing_bit.cvmt");
  PostMortemTrace trace;
  // 40-bit maps: the one wire word has 24 bits that must stay zero.
  PageAccessBitmaps pair{Bitmap(40), Bitmap(40)};
  pair.write.Set(3);
  trace.AddBitmaps(IntervalId{0, 1}, 2, pair);
  ASSERT_TRUE(WriteTraceFile(trace, path));
  PostMortemTrace clean;
  ASSERT_TRUE(ReadTraceFile(path, &clean));

  // The write bitmap's word ends the file; set its bit 63 (the top bit of
  // the last byte, little-endian).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  bytes.back() = static_cast<char>(static_cast<uint8_t>(bytes.back()) | 0x80u);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  PostMortemTrace out;
  EXPECT_FALSE(ReadTraceFile(path, &out));
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  const std::string path = TempPath("empty.cvmt");
  PostMortemTrace empty;
  ASSERT_TRUE(WriteTraceFile(empty, path));
  PostMortemTrace loaded;
  ASSERT_TRUE(ReadTraceFile(path, &loaded));
  EXPECT_EQ(loaded.NumRecords(), 0u);
  EXPECT_EQ(loaded.NumBitmapPairs(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cvm
