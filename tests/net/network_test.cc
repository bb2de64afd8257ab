// Tests for the simulated network fabric and byte-accurate accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>
#include <thread>

#include "src/net/network.h"

namespace cvm {
namespace {

Message Make(NodeId from, NodeId to, Payload payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  return m;
}

TEST(NetworkTest, DeliversFifoPerInbox) {
  Network net(2);
  for (int i = 0; i < 5; ++i) {
    PageRequestMsg req;
    req.page = i;
    net.Send(Make(0, 1, req));
  }
  for (int i = 0; i < 5; ++i) {
    auto msg = net.Recv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
    EXPECT_EQ(msg->from, 0);
  }
  EXPECT_FALSE(net.TryRecv(1).has_value());
}

TEST(NetworkTest, CloseWakesBlockedReceivers) {
  Network net(1);
  std::thread receiver([&] {
    auto msg = net.Recv(0);
    EXPECT_FALSE(msg.has_value());
  });
  net.Close();
  receiver.join();
}

TEST(NetworkTest, PendingCountTracksTheInbox) {
  Network net(2);
  EXPECT_EQ(net.PendingCount(1).load(), 0u);
  net.Send(Make(0, 1, PageRequestMsg{}));
  net.Send(Make(0, 1, PageRequestMsg{}));
  EXPECT_EQ(net.PendingCount(1).load(), 2u);
  EXPECT_EQ(net.PendingCount(0).load(), 0u);  // Per inbox.
  ASSERT_TRUE(net.TryRecv(1).has_value());
  EXPECT_EQ(net.PendingCount(1).load(), 1u);
  ASSERT_TRUE(net.Recv(1).has_value());
  EXPECT_EQ(net.PendingCount(1).load(), 0u);
  net.Send(Make(1, 0, PageRequestMsg{}));
  EXPECT_EQ(net.PendingCount(0).load(), 1u);
}

TEST(NetworkTest, RecvUntilHonoursItsDeadline) {
  Network net(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(net.RecvUntil(1, start + std::chrono::milliseconds(5)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(5));

  PageRequestMsg req;
  req.page = 3;
  net.Send(Make(0, 1, req));
  // A frame queued before the deadline is returned, even one already past.
  auto msg = net.RecvUntil(1, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, 3);
  EXPECT_EQ(net.PendingCount(1).load(), 0u);
}

// The yield-poll receive never parks: a frame must be taken whether it lands
// microseconds into the poll or long after it began.
TEST(NetworkTest, FramePushedEarlyInThePollIsReceived) {
  Network net(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
    PageRequestMsg req;
    req.page = 7;
    net.Send(Make(0, 1, req));
  });
  auto msg = net.Recv(1);
  sender.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, 7);
}

TEST(NetworkTest, FramePushedLongAfterThePollBeganIsReceived) {
  Network net(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    PageRequestMsg req;
    req.page = 9;
    net.Send(Make(0, 1, req));
  });
  const auto start = std::chrono::steady_clock::now();
  auto msg = net.Recv(1);
  sender.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, 9);
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(50));
}

TEST(NetworkTest, CloseDuringThePollEndsTheReceive) {
  Network net(1);
  std::atomic<bool> started{false};
  std::thread receiver([&] {
    started.store(true);
    EXPECT_FALSE(net.Recv(0).has_value());
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  net.Close();
  receiver.join();
}

TEST(NetworkTest, RecvUntilDeadlineEndsThePollPromptly) {
  Network net(2);
  // The best of a few tries, so a descheduled test thread cannot fail it: a
  // 5 us deadline must end the poll well inside 50 us, with no timer-slack
  // sleep after it.
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(net.RecvUntil(1, start + std::chrono::microseconds(5)).has_value());
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_GE(took, std::chrono::microseconds(5));
    fastest = std::min(fastest, took);
  }
  EXPECT_LT(fastest, std::chrono::microseconds(50));
}

// Recv waits for "a frame or Close", so marking the receiving node dead
// must not end the receive or invent a frame; Close still ends it.
TEST(NetworkTest, MarkNodeDeadLeavesAPollingReceiverWaiting) {
  Network net(2);
  std::atomic<bool> returned{false};
  std::thread receiver([&] {
    EXPECT_FALSE(net.Recv(1).has_value());
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.MarkNodeDead(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  EXPECT_TRUE(net.Send(Make(0, 1, PageRequestMsg{})).unreachable());
  net.Close();
  receiver.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(net.PendingCount(1).load(), 0u);
}

TEST(NetworkTest, CloseDrainsQueuedFramesThenEnds) {
  Network net(2);
  for (int i = 0; i < 3; ++i) {
    PageRequestMsg req;
    req.page = i;
    net.Send(Make(0, 1, req));
  }
  net.Close();
  EXPECT_TRUE(net.closed());
  // Sends after Close are dropped; frames queued before it still drain, in
  // order, through every receive flavour.
  EXPECT_EQ(net.Send(Make(0, 1, PageRequestMsg{})).status, SendOutcome::Status::kClosed);
  auto first = net.Recv(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(first->payload).page, 0);
  auto second = net.TryRecv(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(second->payload).page, 1);
  auto third = net.RecvUntil(1, std::chrono::steady_clock::now() + std::chrono::hours(1));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(third->payload).page, 2);
  EXPECT_EQ(net.PendingCount(1).load(), 0u);
  EXPECT_FALSE(net.Recv(1).has_value());
  EXPECT_FALSE(net.RecvUntil(1, std::chrono::steady_clock::now() + std::chrono::hours(1))
                   .has_value());
}

TEST(NetworkTest, CountsBytesByKind) {
  Network net(2);
  PageReplyMsg reply;
  reply.page = 0;
  reply.data = std::make_shared<std::vector<uint8_t>>(4096, 0);
  net.Send(Make(0, 1, reply));
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, kMessageHeaderBytes + 8 + 4096);
  EXPECT_EQ(stats.bytes_by_kind.at("PageReply"), stats.bytes);
  EXPECT_EQ(stats.read_notice_bytes, 0u);
}

TEST(NetworkTest, ReadNoticeBytesTrackedOnSyncMessages) {
  Network net(2);
  IntervalRecord record;
  record.id = IntervalId{0, 0};
  record.vc = VectorClock(2);
  record.write_pages = {1, 2};
  record.read_pages = {3, 4, 5};

  LockGrantMsg grant;
  grant.lock = 0;
  grant.releaser_vc = VectorClock(2);
  grant.intervals = {record};
  net.Send(Make(0, 1, grant));

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.read_notice_bytes, 3 * sizeof(PageId));
  EXPECT_GT(stats.bytes, stats.read_notice_bytes);
}

TEST(NetworkTest, TotalsEqualSumOfPerKindAccounting) {
  Network net(3);
  PageRequestMsg req;
  req.page = 1;
  PageReplyMsg reply;
  reply.page = 1;
  reply.data = std::make_shared<std::vector<uint8_t>>(512, 0);
  LockRequestMsg lock_req;
  lock_req.requester_vc = VectorClock(3);
  net.Send(Make(0, 1, req));
  net.Send(Make(1, 0, reply));
  net.Send(Make(2, 0, lock_req));
  net.Send(Make(0, 2, req));

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages, 4u);
  uint64_t kind_messages = 0;
  uint64_t kind_bytes = 0;
  for (const auto& [kind, count] : stats.messages_by_kind) {
    kind_messages += count;
  }
  for (const auto& [kind, bytes] : stats.bytes_by_kind) {
    kind_bytes += bytes;
  }
  EXPECT_EQ(stats.messages, kind_messages);
  EXPECT_EQ(stats.bytes, kind_bytes);
  EXPECT_EQ(stats.messages_by_kind.at("PageRequest"), 2u);
  EXPECT_EQ(stats.messages_by_kind.at("PageReply"), 1u);
  EXPECT_EQ(stats.messages_by_kind.at("LockRequest"), 1u);
}

TEST(NetworkTest, PerSenderAccountingKeysByNodeId) {
  Network net(3);
  PageRequestMsg req;
  req.page = 1;
  net.Send(Make(2, 0, req));
  net.Send(Make(2, 1, req));
  net.Send(Make(kNoNode, 1, req));  // A frame with no sender node.
  const NetworkStats stats = net.stats();
  const uint64_t bytes = stats.bytes / 3;
  EXPECT_EQ(stats.messages_by_sender, (std::map<NodeId, uint64_t>{{kNoNode, 1}, {2, 2}}));
  EXPECT_EQ(stats.bytes_by_sender, (std::map<NodeId, uint64_t>{{kNoNode, bytes}, {2, 2 * bytes}}));
  // Only kinds that were sent appear.
  EXPECT_EQ(stats.messages_by_kind, (std::map<std::string, uint64_t>{{"PageRequest", 3}}));
}

TEST(NetworkTest, ObservabilityCountersMirrorStats) {
  Network net(2);
  obs::Tracer tracer(2, [] {
    obs::TraceConfig config;
    config.trace_enabled = true;
    return config;
  }());
  obs::MetricsRegistry metrics;
  net.AttachObservability(&tracer, &metrics);

  PageReplyMsg reply;
  reply.data = std::make_shared<std::vector<uint8_t>>(256, 0);
  net.Send(Make(0, 1, reply));
  net.Send(Make(1, 0, PageRequestMsg{}));
  (void)net.Recv(1);

  const NetworkStats stats = net.stats();
  EXPECT_EQ(metrics.counter("net.messages")->value(), stats.messages);
  EXPECT_EQ(metrics.counter("net.bytes")->value(), stats.bytes);
  EXPECT_EQ(metrics.histogram("net.msg_bytes")->count(), 2u);
  // One delivery consumed -> one latency observation.
  EXPECT_EQ(metrics.histogram("net.msg_latency_ns")->count(), 1u);
  // Two msg.send instants + one msg.recv instant. Raw-network sends carry
  // no flow context, so the fabric emits no flow steps.
  EXPECT_EQ(tracer.Collected().size(), 3u);
}

// The typed sizers must count exactly what the Payload sizers count.
void ExpectTypedSizesMatch(const Payload& payload) {
  std::visit(
      [&payload](const auto& message) {
        EXPECT_EQ(PayloadByteSize(message), PayloadByteSize(payload))
            << PayloadKindName(payload.index());
        EXPECT_EQ(PayloadReadNoticeBytes(message), PayloadReadNoticeBytes(payload))
            << PayloadKindName(payload.index());
      },
      payload);
}

template <size_t... Kinds>
void ExpectTypedSizesMatchForEmptyMessages(std::index_sequence<Kinds...>) {
  (ExpectTypedSizesMatch(Payload(std::variant_alternative_t<Kinds, Payload>{})), ...);
}

TEST(MessageTest, PayloadSizesAreConsistent) {
  // Wire size must grow with content and include the header.
  PageRequestMsg req;
  EXPECT_EQ(PayloadByteSize(Payload(req)), kMessageHeaderBytes + 13);

  // A raw-encoded bitmap entry costs the legacy full-page payload plus the
  // codec's per-bitmap header (tag byte + bit count).
  BitmapReplyMsg reply;
  reply.entries = {BitmapReplyEntry{IntervalId{0, 0}, 0,
                                    BitmapCodec::Encode(Bitmap(1024), false),
                                    BitmapCodec::Encode(Bitmap(1024), false)}};
  EXPECT_EQ(PayloadByteSize(Payload(reply)),
            kMessageHeaderBytes + 8 + sizeof(IntervalId) + sizeof(PageId) +
                2 * (EncodedBitmap::kHeaderBytes + 128));

  Message m = Make(0, 0, reply);
  EXPECT_STREQ(m.KindName(), "BitmapReply");

  // An empty bitmap compresses to just the codec header.
  BitmapShipMsg ship;
  ship.entries = {BitmapReplyEntry{IntervalId{0, 0}, 0,
                                   BitmapCodec::Encode(Bitmap(1024), true),
                                   BitmapCodec::Encode(Bitmap(1024), true)}};
  EXPECT_EQ(PayloadByteSize(Payload(ship)),
            kMessageHeaderBytes + 8 + sizeof(uint64_t) + sizeof(IntervalId) + sizeof(PageId) +
                2 * EncodedBitmap::kHeaderBytes);
  EXPECT_STREQ(Make(0, 0, ship).KindName(), "BitmapShip");

  // Every typed size equals the variant size, for every payload kind.
  ExpectTypedSizesMatchForEmptyMessages(std::make_index_sequence<kNumPayloadKinds>{});

  // Filled messages, so the variable-size parts count too.
  IntervalRecord record;
  record.id = IntervalId{1, 4};
  record.vc = VectorClock(4);
  record.write_pages = {2, 5};
  record.read_pages = {3, 7, 11};
  LockGrantMsg grant;
  grant.intervals = {record, record};
  grant.releaser_vc = VectorClock(4);
  grant.handoff = {LockRequestMsg{3, 2, VectorClock(4)}};
  BarrierArriveMsg arrive;
  arrive.intervals = {record};
  arrive.vc = VectorClock(4);
  BarrierTreeArriveMsg tree_arrive;
  tree_arrive.intervals = {record};
  tree_arrive.interest = {1, 2, 3};
  DiffFlushMsg flush;
  flush.diffs = {Diff{2, IntervalId{1, 4}, {DiffWord{}, DiffWord{}}}};
  PageReplyMsg page_reply;
  page_reply.data = std::make_shared<std::vector<uint8_t>>(4096, 0);
  BarrierReleaseMsg release;
  release.intervals = {record};
  const std::vector<Payload> filled = {grant, arrive, tree_arrive, flush,
                                       page_reply, release, ErcUpdateMsg{record, 1}};
  for (const Payload& payload : filled) {
    ExpectTypedSizesMatch(payload);
  }
  EXPECT_GT(PayloadReadNoticeBytes(grant), 0u);
}

TEST(MessageTest, SendToInvalidNodeAborts) {
  Network net(2);
  PageRequestMsg req;
  EXPECT_DEATH(net.Send(Make(0, 7, req)), "CHECK failed");
}

}  // namespace
}  // namespace cvm
