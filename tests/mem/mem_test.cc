// Tests for the shared segment, page tables, and twin/diff machinery.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/mem/shared_segment.h"

namespace cvm {
namespace {

Frame Bytes(size_t size, uint8_t value) {
  return std::make_shared<std::vector<uint8_t>>(size, value);
}

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

  pt.Install(4000, Bytes(256, 0), PageState::kReadOnly, /*shared=*/false);
  pt.entry(7).state = PageState::kInvalid;
  EXPECT_EQ(pt.num_entries(), 2u);
  ASSERT_NE(pt.Find(4000), nullptr);
  EXPECT_EQ(pt.Find(4000)->state, PageState::kReadOnly);
  EXPECT_EQ(pt.Find(4001), nullptr);
  ASSERT_NE(pt.Find(7), nullptr);
  EXPECT_EQ(pt.Find(7)->frame, nullptr);
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
  pt.Install(2, Bytes(256, 0), PageState::kReadOnly, /*shared=*/false);
  EXPECT_TRUE(pt.Readable(2));
  EXPECT_FALSE(pt.Writable(2));
  pt.entry(2).state = PageState::kReadWrite;
  pt.WriteWord(2, 10, 0x12345678u);
  EXPECT_EQ(pt.ReadWord(2, 10), 0x12345678u);
  pt.Invalidate(2);
  EXPECT_FALSE(pt.Readable(2));
  // Data survives invalidation (stale copy), as the weak-memory tests rely on.
  EXPECT_EQ(pt.entry(2).frame->size(), 256u);
}

TEST(PageTableTest, TwinIsSnapshot) {
  PageTable pt(1, 64);
  pt.Install(0, Bytes(64, 7), PageState::kReadWrite, /*shared=*/false);
  pt.MakeTwin(0);
  pt.WriteWord(0, 3, 42);
  ASSERT_NE(pt.entry(0).twin, nullptr);
  EXPECT_FALSE(pt.entry(0).twin_shared);
  EXPECT_EQ((*pt.entry(0).twin)[3 * 4], 7);
  pt.DropTwin(0);
  EXPECT_EQ(pt.entry(0).twin, nullptr);
}

TEST(PageTableTest, SharedFrameIsReadWithoutACopy) {
  const Frame zero = Bytes(256, 0);
  PageTable pt(4, 256);
  pt.Install(1, zero, PageState::kReadOnly, /*shared=*/true);
  const PageEntry& e = pt.entry(1);
  EXPECT_TRUE(e.shared);
  EXPECT_EQ(e.frame, zero);  // The handle, not a copy.
  EXPECT_EQ(zero.use_count(), 2);
  EXPECT_TRUE(pt.Readable(1));
  EXPECT_EQ(pt.ReadWord(1, 0), 0u);
  EXPECT_EQ(pt.ReadWord(1, 63), 0u);
  // Serving the page hands out the same frame again.
  EXPECT_EQ(pt.Share(1), zero);
  // A shared frame survives invalidation, like any retained stale copy.
  pt.Invalidate(1);
  EXPECT_FALSE(pt.Readable(1));
  EXPECT_EQ(pt.entry(1).frame, zero);
  // A fetched install replaces it with the new frame.
  pt.Install(1, Bytes(256, 3), PageState::kReadOnly, /*shared=*/true);
  EXPECT_EQ(pt.ReadWord(1, 5), 0x03030303u);
  EXPECT_EQ(zero.use_count(), 1);
}

TEST(PageTableTest, ShareMarksTheServersFrameAndTheNextWriteCopiesIt) {
  PageTable pt(4, 256);
  pt.Install(2, Bytes(256, 0), PageState::kReadWrite, /*shared=*/false);
  pt.WriteWord(2, 7, 0xfeedfaceu);
  const Frame before = pt.entry(2).frame;
  pt.WriteWord(2, 8, 1);  // A private frame is written in place.
  EXPECT_EQ(pt.entry(2).frame, before);
  const Frame served = pt.Share(2);
  EXPECT_EQ(served, before);
  EXPECT_TRUE(pt.entry(2).shared);
  // The owner keeps writing: its write lands in a private copy, and the
  // served frame keeps the bytes it was served with.
  pt.WriteWord(2, 7, 0xcafef00du);
  EXPECT_FALSE(pt.entry(2).shared);
  EXPECT_NE(pt.entry(2).frame, served);
  EXPECT_EQ(pt.ReadWord(2, 7), 0xcafef00du);
  EXPECT_EQ(pt.ReadWord(2, 8), 1u);
  uint32_t served_word;
  std::memcpy(&served_word, served->data() + 7 * 4, 4);
  EXPECT_EQ(served_word, 0xfeedfaceu);
}

TEST(PageTableTest, MakePrivateCopiesOnlyASharedFrame) {
  const Frame zero = Bytes(256, 0);
  PageTable pt(4, 256);
  pt.Install(2, zero, PageState::kReadOnly, /*shared=*/true);
  PageEntry& e = pt.MakePrivate(2);
  EXPECT_FALSE(e.shared);
  EXPECT_NE(e.frame, zero);
  EXPECT_EQ(*e.frame, std::vector<uint8_t>(256, 0));
  e.state = PageState::kReadWrite;
  pt.WriteWord(2, 7, 0xfeedfaceu);
  EXPECT_EQ(pt.ReadWord(2, 7), 0xfeedfaceu);
  // The write went to the entry's own frame; the shared one stays zero.
  EXPECT_EQ(*zero, std::vector<uint8_t>(256, 0));
  // Making a private frame private leaves it, and its bytes, alone.
  const Frame own = e.frame;
  EXPECT_EQ(pt.MakePrivate(2).frame, own);
  EXPECT_EQ((*own)[7 * 4], 0xce);
}

TEST(PageTableTest, MakeTwinKeepsASharedFrameAsTheTwin) {
  const Frame zero = Bytes(64, 0);
  PageTable pt(1, 64);
  pt.Install(0, zero, PageState::kReadOnly, /*shared=*/true);
  pt.MakeTwin(0);
  PageEntry& e = pt.entry(0);
  // One copy, for the data; the shared frame is already a snapshot.
  EXPECT_EQ(e.twin, zero);
  EXPECT_TRUE(e.twin_shared);
  EXPECT_FALSE(e.shared);
  EXPECT_NE(e.frame, zero);
  EXPECT_EQ(*e.frame, std::vector<uint8_t>(64, 0));
  e.state = PageState::kReadWrite;
  pt.WriteWord(0, 1, 9);
  EXPECT_EQ((*e.twin)[4], 0);
  EXPECT_EQ(*zero, std::vector<uint8_t>(64, 0));
  // Writing the twin takes a private copy of it too.
  pt.PrivateTwin(e)[8] = 5;
  EXPECT_FALSE(e.twin_shared);
  EXPECT_NE(e.twin, zero);
  EXPECT_EQ(*zero, std::vector<uint8_t>(64, 0));
}

TEST(PageTableTest, SharedFrameInstalledWritableIsNeverWrittenInPlace) {
  // A single-writer ownership grant installs the served frame writable.
  const Frame served = Bytes(64, 0);
  PageTable pt(1, 64);
  pt.Install(0, served, PageState::kReadWrite, /*shared=*/true);
  EXPECT_TRUE(pt.Writable(0));
  pt.WriteWord(0, 2, 77);
  EXPECT_EQ(pt.ReadWord(0, 2), 77u);
  EXPECT_EQ(*served, std::vector<uint8_t>(64, 0));
}

TEST(PageTableDeathTest, InstallNeedsAPageSizeFrame) {
  PageTable pt(1, 64);
  EXPECT_DEATH(pt.Install(0, nullptr, PageState::kReadOnly, /*shared=*/true), "page 0");
  EXPECT_DEATH(pt.Install(0, Bytes(32, 0), PageState::kReadOnly, /*shared=*/false), "page 0");
}

TEST(PageTableDeathTest, ServingAPageWithoutACopyDies) {
  PageTable pt(1, 64);
  EXPECT_DEATH(pt.Share(0), "has no copy");
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
