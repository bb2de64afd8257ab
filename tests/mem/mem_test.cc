// Tests for the shared segment, page tables, and twin/diff machinery.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/mem/shared_segment.h"

namespace cvm {
namespace {

TEST(SharedSegmentTest, AllocatesPageAlignedAndSymbolizes) {
  SharedSegment seg(1024, 64 * 1024);
  const GlobalAddr a = seg.Alloc("alpha", 100);
  const GlobalAddr b = seg.Alloc("beta", 8);
  EXPECT_EQ(a % 1024, 0u);
  EXPECT_EQ(b % 1024, 0u);
  EXPECT_EQ(seg.Symbolize(a), "alpha");
  EXPECT_EQ(seg.Symbolize(a + 8), "alpha+8");
  EXPECT_EQ(seg.Symbolize(b), "beta");
  EXPECT_EQ(seg.PageOf(b), 1);
}

TEST(SharedSegmentTest, PackedAllocationSharesPages) {
  SharedSegment seg(1024, 64 * 1024);
  const GlobalAddr a = seg.Alloc("a", 4, /*page_align=*/false);
  const GlobalAddr b = seg.Alloc("b", 4, /*page_align=*/false);
  EXPECT_EQ(seg.PageOf(a), seg.PageOf(b));
  EXPECT_EQ(b, a + 4);
}

TEST(SharedSegmentTest, InitialContentsArePokeable) {
  SharedSegment seg(256, 4096);
  seg.Alloc("x", 16);
  const uint32_t magic = 0xdeadbeef;
  seg.PokeInitial(4, &magic, sizeof(magic));
  const std::vector<uint8_t> page = seg.InitialPage(0);
  uint32_t got;
  std::memcpy(&got, page.data() + 4, 4);
  EXPECT_EQ(got, magic);
}

TEST(SharedSegmentTest, ImageStoresOnlyPokedPages) {
  // A 32 MiB segment: construction allocates no page image.
  SharedSegment seg(4096, 32ull << 20);
  EXPECT_EQ(seg.InitialPage(seg.num_pages() - 1), std::vector<uint8_t>(4096, 0));

  // A poke straddling a page boundary lands in both pages.
  const uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  seg.PokeInitial(4092, bytes, sizeof(bytes));
  const std::vector<uint8_t> first = seg.InitialPage(0);
  const std::vector<uint8_t> second = seg.InitialPage(1);
  EXPECT_EQ(first[4091], 0);
  EXPECT_EQ(first[4092], 1);
  EXPECT_EQ(first[4095], 4);
  EXPECT_EQ(second[0], 5);
  EXPECT_EQ(second[3], 8);
  EXPECT_EQ(second[4], 0);
  // A later poke keeps the earlier bytes of the same page.
  const uint8_t nine = 9;
  seg.PokeInitial(4096 + 4, &nine, 1);
  EXPECT_EQ(seg.InitialPage(1)[0], 5);
  EXPECT_EQ(seg.InitialPage(1)[4], 9);
  EXPECT_EQ(seg.InitialPage(2), std::vector<uint8_t>(4096, 0));
}

TEST(PageTableTest, EntriesExistOnlyForTouchedPages) {
  PageTable pt(8192, 256);
  EXPECT_EQ(pt.num_entries(), 0u);
  // Peeks, state queries and invalidations of untouched pages create nothing.
  EXPECT_EQ(pt.Find(4000), nullptr);
  EXPECT_FALSE(pt.Readable(4000));
  EXPECT_FALSE(pt.Writable(4000));
  pt.Invalidate(4000);
  EXPECT_EQ(pt.num_entries(), 0u);

  pt.Install(4000, std::vector<uint8_t>(256, 0), PageState::kReadOnly);
  pt.entry(7).state = PageState::kInvalid;
  EXPECT_EQ(pt.num_entries(), 2u);
  ASSERT_NE(pt.Find(4000), nullptr);
  EXPECT_EQ(pt.Find(4000)->state, PageState::kReadOnly);
  EXPECT_EQ(pt.Find(4001), nullptr);
  ASSERT_NE(pt.Find(7), nullptr);
  EXPECT_TRUE(pt.Find(7)->data.empty());
}

TEST(PageTableTest, ForEachEntryVisitsExactlyTheEntriesInOrder) {
  PageTable pt(8192, 256);
  // Pages in three chunks, including both ends of a chunk and the last page.
  const std::vector<PageId> pages = {8191, 64, 0, 63, 4000, 127};
  for (PageId page : pages) {
    pt.entry(page);
  }
  std::vector<PageId> seen;
  pt.ForEachEntry([&seen, &pt](PageId page, const PageEntry& entry) {
    EXPECT_EQ(&entry, pt.Find(page));
    seen.push_back(page);
  });
  EXPECT_EQ(seen, (std::vector<PageId>{0, 63, 64, 127, 4000, 8191}));
  EXPECT_EQ(pt.num_entries(), pages.size());  // The walk creates nothing.
}

TEST(PageTableTest, StateMachineAndWordAccess) {
  PageTable pt(4, 256);
  EXPECT_FALSE(pt.Readable(2));
  pt.Install(2, std::vector<uint8_t>(256, 0), PageState::kReadOnly);
  EXPECT_TRUE(pt.Readable(2));
  EXPECT_FALSE(pt.Writable(2));
  pt.entry(2).state = PageState::kReadWrite;
  pt.WriteWord(2, 10, 0x12345678u);
  EXPECT_EQ(pt.ReadWord(2, 10), 0x12345678u);
  pt.Invalidate(2);
  EXPECT_FALSE(pt.Readable(2));
  // Data survives invalidation (stale copy), as the weak-memory tests rely on.
  EXPECT_EQ(pt.entry(2).data.size(), 256u);
}

TEST(PageTableTest, TwinIsSnapshot) {
  PageTable pt(1, 64);
  pt.Install(0, std::vector<uint8_t>(64, 7), PageState::kReadWrite);
  pt.MakeTwin(0);
  pt.WriteWord(0, 3, 42);
  ASSERT_TRUE(pt.entry(0).twin.has_value());
  EXPECT_EQ((*pt.entry(0).twin)[3 * 4], 7);
  pt.DropTwin(0);
  EXPECT_FALSE(pt.entry(0).twin.has_value());
}

TEST(PageTableTest, ZeroFrameReadsZeroWithoutStorage) {
  const std::vector<uint8_t> zero_page(256, 0);
  PageTable pt(4, 256, zero_page.data());
  pt.InstallZero(1, PageState::kReadOnly);
  const PageEntry& e = pt.entry(1);
  EXPECT_TRUE(e.zero);
  EXPECT_TRUE(e.data.empty());
  EXPECT_EQ(e.data.capacity(), 0u);
  EXPECT_TRUE(pt.Readable(1));
  EXPECT_EQ(pt.ReadWord(1, 0), 0u);
  EXPECT_EQ(pt.ReadWord(1, 63), 0u);
  // The page cache reads through this pointer: the shared zero page.
  EXPECT_EQ(pt.ReadView(e), zero_page.data());
  EXPECT_EQ(pt.Copy(1), std::vector<uint8_t>(256, 0));
  // A zero frame survives invalidation, like any retained stale copy.
  pt.Invalidate(1);
  EXPECT_FALSE(pt.Readable(1));
  EXPECT_TRUE(pt.entry(1).zero);
  // A fetched install replaces it with real bytes.
  pt.Install(1, std::vector<uint8_t>(256, 3), PageState::kReadOnly);
  EXPECT_FALSE(pt.entry(1).zero);
  EXPECT_EQ(pt.ReadWord(1, 5), 0x03030303u);
}

TEST(PageTableTest, MaterializeGivesAZeroFrameStorage) {
  const std::vector<uint8_t> zero_page(256, 0);
  PageTable pt(4, 256, zero_page.data());
  pt.InstallZero(2, PageState::kReadOnly);
  PageEntry& e = pt.Materialize(2);
  EXPECT_FALSE(e.zero);
  EXPECT_EQ(e.data, std::vector<uint8_t>(256, 0));
  EXPECT_EQ(pt.ReadView(e), e.data.data());
  e.state = PageState::kReadWrite;
  pt.WriteWord(2, 7, 0xfeedfaceu);
  EXPECT_EQ(pt.ReadWord(2, 7), 0xfeedfaceu);
  // The write went to the frame's own bytes; the shared page stays zero.
  EXPECT_EQ(zero_page, std::vector<uint8_t>(256, 0));
  // Materializing a frame that has storage leaves its bytes alone.
  EXPECT_EQ(pt.Materialize(2).data[7 * 4], 0xce);
}

TEST(PageTableTest, MakeTwinMaterializesAZeroFrame) {
  const std::vector<uint8_t> zero_page(64, 0);
  PageTable pt(1, 64, zero_page.data());
  pt.InstallZero(0, PageState::kReadOnly);
  pt.MakeTwin(0);
  const PageEntry& e = pt.entry(0);
  EXPECT_FALSE(e.zero);
  EXPECT_EQ(e.data, std::vector<uint8_t>(64, 0));
  ASSERT_TRUE(e.twin.has_value());
  EXPECT_EQ(*e.twin, std::vector<uint8_t>(64, 0));
  pt.entry(0).state = PageState::kReadWrite;
  pt.WriteWord(0, 1, 9);
  EXPECT_EQ((*pt.entry(0).twin)[4], 0);
  EXPECT_EQ(zero_page, std::vector<uint8_t>(64, 0));
}

TEST(PageTableDeathTest, ZeroFrameIsNeverInstalledWritable) {
  const std::vector<uint8_t> zero_page(64, 0);
  PageTable pt(1, 64, zero_page.data());
  EXPECT_DEATH(pt.InstallZero(0, PageState::kReadWrite), "installed writable");
}

TEST(PageTableDeathTest, TableWithoutAZeroPageHoldsNoZeroFrames) {
  PageTable pt(1, 64);
  EXPECT_DEATH(pt.InstallZero(0, PageState::kReadOnly), "without a zero page");
}

TEST(DiffTest, CapturesOnlyModifiedWords) {
  std::vector<uint8_t> twin(64, 0);
  std::vector<uint8_t> current = twin;
  const uint32_t v1 = 0xaabbccdd;
  const uint32_t v2 = 0x11223344;
  std::memcpy(current.data() + 0, &v1, 4);
  std::memcpy(current.data() + 40, &v2, 4);
  const Diff diff = MakeDiff(3, IntervalId{1, 2}, twin, current);
  ASSERT_EQ(diff.words.size(), 2u);
  EXPECT_EQ(diff.words[0].word, 0u);
  EXPECT_EQ(diff.words[0].value, v1);
  EXPECT_EQ(diff.words[1].word, 10u);
  EXPECT_EQ(diff.words[1].value, v2);
  EXPECT_EQ(diff.page, 3);
}

TEST(DiffTest, SameValueOverwriteIsInvisible) {
  // §6.5's caveat: a word overwritten with its existing value produces no
  // diff entry — diff-derived write detection misses such races.
  std::vector<uint8_t> twin(32, 5);
  std::vector<uint8_t> current = twin;  // "Written" but values unchanged.
  const Diff diff = MakeDiff(0, IntervalId{0, 0}, twin, current);
  EXPECT_TRUE(diff.words.empty());
}

TEST(DiffTest, PropertyApplyReconstructsCurrent) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t bytes = 256;
    std::vector<uint8_t> twin(bytes);
    for (auto& b : twin) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
    std::vector<uint8_t> current = twin;
    const int changes = static_cast<int>(rng.Range(0, 20));
    for (int i = 0; i < changes; ++i) {
      const size_t word = rng.Below(bytes / 4);
      const uint32_t value = static_cast<uint32_t>(rng.Next());
      std::memcpy(current.data() + word * 4, &value, 4);
    }
    const Diff diff = MakeDiff(0, IntervalId{0, 0}, twin, current);
    std::vector<uint8_t> rebuilt = twin;
    ApplyDiff(diff, rebuilt);
    EXPECT_EQ(rebuilt, current);
    EXPECT_LE(diff.words.size(), static_cast<size_t>(changes));
  }
}

TEST(DiffDeathTest, ApplyRejectsWordPastFrame) {
  std::vector<uint8_t> frame(64, 0);  // 16 words.
  Diff diff;
  diff.words = {DiffWord{0, 0x11111111u}, DiffWord{16, 0x22222222u}};
  EXPECT_DEATH(ApplyDiff(diff, frame), "16 vs 16");
}

}  // namespace
}  // namespace cvm
