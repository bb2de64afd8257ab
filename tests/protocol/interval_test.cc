// Tests for interval records, the interval log (unseen queries, GC), and
// the per-node bitmap store.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/protocol/interval.h"

namespace cvm {
namespace {

IntervalRecord MakeRecord(NodeId node, IntervalIndex index, std::vector<PageId> writes = {},
                          std::vector<PageId> reads = {}) {
  IntervalRecord r;
  r.id = IntervalId{node, index};
  r.vc = VectorClock(4);
  r.vc.Set(node, index);
  r.write_pages = std::move(writes);
  r.read_pages = std::move(reads);
  return r;
}

TEST(IntervalRecordTest, NoticeSizes) {
  IntervalRecord r = MakeRecord(1, 3, {5, 9}, {2});
  EXPECT_EQ(r.ReadNoticeByteSize(), sizeof(PageId));
  EXPECT_EQ(r.ByteSize(), r.BaseByteSize() + sizeof(PageId));
}

TEST(IntervalLogTest, UnseenByReturnsExactlyTheUnseen) {
  IntervalLog log(4);
  log.Insert(MakeRecord(0, 0));
  log.Insert(MakeRecord(0, 1));
  log.Insert(MakeRecord(1, 0));
  log.Insert(MakeRecord(2, 0));

  VectorClock vc(4);
  vc.Set(0, 0);  // Seen node 0 through interval 0; nothing else.
  const auto unseen = log.UnseenBy(vc);
  ASSERT_EQ(unseen.size(), 3u);
  EXPECT_EQ(unseen[0].id, (IntervalId{0, 1}));
  EXPECT_EQ(unseen[1].id, (IntervalId{1, 0}));
  EXPECT_EQ(unseen[2].id, (IntervalId{2, 0}));
}

TEST(IntervalLogTest, InsertIsIdempotent) {
  IntervalLog log(2);
  log.Insert(MakeRecord(0, 0));
  log.Insert(MakeRecord(0, 0));
  EXPECT_EQ(log.size(), 1u);
}

TEST(IntervalLogTest, OfEpochKeepsOnlyThatEpochInAllOrder) {
  IntervalLog log(3);
  for (const auto& [node, index, epoch] :
       {std::tuple{2, 0, 1}, std::tuple{0, 0, 0}, std::tuple{0, 1, 1}, std::tuple{1, 4, 1}}) {
    IntervalRecord record = MakeRecord(node, index);
    record.epoch = epoch;
    log.Insert(record);
  }
  const std::vector<IntervalRecord> epoch1 = log.OfEpoch(1);
  ASSERT_EQ(epoch1.size(), 3u);
  EXPECT_EQ(epoch1[0].id, (IntervalId{0, 1}));
  EXPECT_EQ(epoch1[1].id, (IntervalId{1, 4}));
  EXPECT_EQ(epoch1[2].id, (IntervalId{2, 0}));
  EXPECT_EQ(log.OfEpoch(0).size(), 1u);
  EXPECT_TRUE(log.OfEpoch(2).empty());
}

TEST(IntervalLogTest, GarbageCollectionDropsDominated) {
  IntervalLog log(2);
  log.Insert(MakeRecord(0, 0));
  log.Insert(MakeRecord(0, 1));
  log.Insert(MakeRecord(1, 2));
  VectorClock merged(2);
  merged.Set(0, 0);
  merged.Set(1, 2);
  log.DiscardDominatedBy(merged);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.Contains(IntervalId{0, 1}));
  EXPECT_FALSE(log.Contains(IntervalId{1, 2}));
}

TEST(BitmapStoreTest, RecordsLazilyAndFindsPairs) {
  BitmapStore store(256);
  store.Record(0, 3).read.Set(17);
  store.Record(0, 3).read.Set(18);
  store.Record(0, 3).write.Set(17);
  const PageAccessBitmaps* pair = store.Find(0, 3);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair, &store.Record(0, 3));  // Get-or-create returns the same pair.
  EXPECT_TRUE(pair->read.Test(17));
  EXPECT_TRUE(pair->read.Test(18));
  EXPECT_TRUE(pair->write.Test(17));
  EXPECT_FALSE(pair->write.Test(18));
  EXPECT_EQ(store.Find(0, 4), nullptr);
  EXPECT_EQ(store.Find(1, 3), nullptr);
  EXPECT_EQ(store.TotalPairsRecorded(), 1u);
}

TEST(BitmapStoreTest, KeepsOnePairPerInterval) {
  BitmapStore store(64);
  store.Record(0, 3).read.Set(1);
  store.Record(0, 3).read.Set(2);
  store.Record(1, 3).read.Set(1);
  store.Record(1, 3).read.Set(4);
  store.Record(0, 3).read.Set(5);  // Back to interval 0: same pair as before.
  store.Record(1, 3).write.Set(0);
  store.Record(1, 3).write.Set(1);
  store.Record(0, 3).write.Set(6);
  const PageAccessBitmaps* older = store.Find(0, 3);
  const PageAccessBitmaps* newer = store.Find(1, 3);
  ASSERT_NE(older, nullptr);
  ASSERT_NE(newer, nullptr);
  EXPECT_EQ(older->read.SetBits(), (std::vector<uint32_t>{1, 2, 5}));
  EXPECT_EQ(older->write.SetBits(), (std::vector<uint32_t>{6}));
  EXPECT_EQ(newer->read.SetBits(), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(newer->write.SetBits(), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(store.TotalPairsRecorded(), 2u);
}

TEST(BitmapStoreTest, DiscardAndClearStartFreshPairs) {
  BitmapStore store(64);
  store.Record(0, 3).read.Set(1);
  store.DiscardThrough(0);
  // The pair is gone, so the page's next access in interval 0 records into
  // a fresh, empty pair.
  store.Record(0, 3).read.Set(2);
  ASSERT_NE(store.Find(0, 3), nullptr);
  EXPECT_EQ(store.Find(0, 3)->read.SetBits(), (std::vector<uint32_t>{2}));

  store.Record(2, 4).write.Set(7);
  store.Clear();
  EXPECT_EQ(store.Find(2, 4), nullptr);
  store.Record(2, 4).write.Set(8);
  store.Record(2, 4).write.Set(9);
  EXPECT_EQ(store.Find(2, 4)->write.SetBits(), (std::vector<uint32_t>{8, 9}));
  EXPECT_EQ(store.TotalPairsRecorded(), 4u);  // Re-created pairs count again.
}

TEST(BitmapStoreTest, RestoreOverwritesThePair) {
  BitmapStore store(64);
  store.Record(5, 6).read.Set(1);
  store.Record(5, 6).write.Set(1);
  // Overwrite the pair: no reads, one write. Later records land in it.
  PageAccessBitmaps restored{Bitmap(64), Bitmap(64)};
  restored.write.Set(9);
  store.RestorePair(5, 6, restored);
  store.Record(5, 6).read.Set(2);
  store.Record(5, 6).write.Set(3);
  const PageAccessBitmaps* pair = store.Find(5, 6);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->read.SetBits(), (std::vector<uint32_t>{2}));
  EXPECT_EQ(pair->write.SetBits(), (std::vector<uint32_t>{3, 9}));
  // A restore, even of a pair the store lacked, is not a new recording.
  store.RestorePair(7, 1, restored);
  EXPECT_EQ(store.RetainedPairs(), 2u);
  EXPECT_EQ(store.TotalPairsRecorded(), 1u);
}

TEST(BitmapStoreTest, DiscardThroughDropsCheckedEpochs) {
  BitmapStore store(64);
  store.Record(0, 0).read.Set(1);
  store.Record(1, 0).read.Set(1);
  store.Record(5, 2).read.Set(1);
  EXPECT_EQ(store.RetainedPairs(), 3u);
  store.DiscardThrough(1);
  EXPECT_EQ(store.RetainedPairs(), 1u);
  EXPECT_EQ(store.Find(0, 0), nullptr);
  EXPECT_NE(store.Find(5, 2), nullptr);
  // Total recorded is cumulative (Table 3 denominator), not retained.
  EXPECT_EQ(store.TotalPairsRecorded(), 3u);
}

TEST(BitmapStoreTest, ForEachPairVisitsEverything) {
  BitmapStore store(64);
  store.Record(2, 7).write.Set(0);
  store.Record(3, 1).read.Set(5);
  int visits = 0;
  store.ForEachPair(9, [&](const IntervalId& id, PageId page, const PageAccessBitmaps&) {
    EXPECT_EQ(id.node, 9);
    EXPECT_TRUE((id.index == 2 && page == 7) || (id.index == 3 && page == 1));
    ++visits;
  });
  EXPECT_EQ(visits, 2);
}

}  // namespace
}  // namespace cvm
