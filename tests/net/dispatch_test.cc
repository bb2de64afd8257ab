// MessageDispatcher: typed handler registry + unhandled-payload accounting
// (the service loop's silent-drop fallthrough is now a counted event).
#include "src/net/dispatch.h"

#include <gtest/gtest.h>

#include "src/net/message.h"
#include "src/obs/metrics.h"

namespace cvm {
namespace {

Message Make(Payload payload) {
  Message msg;
  msg.from = 1;
  msg.to = 0;
  msg.payload = std::move(payload);
  return msg;
}

TEST(PayloadIndexTest, MatchesVariantAlternatives) {
  // Compile-time indices line up with the runtime variant indices.
  EXPECT_EQ(kPayloadIndexOf<PageRequestMsg>, Payload(PageRequestMsg{}).index());
  EXPECT_EQ(kPayloadIndexOf<LockGrantMsg>, Payload(LockGrantMsg{}).index());
  EXPECT_EQ(kPayloadIndexOf<BarrierTreeReleaseMsg>, Payload(BarrierTreeReleaseMsg{}).index());
  static_assert(kPayloadIndexOf<BarrierTreeReleaseMsg> == kNumPayloadKinds - 1);
}

TEST(DispatchTest, RoutesToRegisteredHandler) {
  MessageDispatcher dispatcher;
  int page_requests = 0;
  PageId last_page = -1;
  dispatcher.Register<PageRequestMsg>([&](const Message& msg) {
    ++page_requests;
    last_page = std::get<PageRequestMsg>(msg.payload).page;
  });

  PageRequestMsg request;
  request.page = 7;
  EXPECT_TRUE(dispatcher.Dispatch(Make(request)));
  EXPECT_EQ(page_requests, 1);
  EXPECT_EQ(last_page, 7);
  EXPECT_EQ(dispatcher.dispatched(kPayloadIndexOf<PageRequestMsg>), 1u);
  EXPECT_EQ(dispatcher.unhandled(), 0u);
}

TEST(DispatchTest, UnhandledIsCountedAndHooked) {
  MessageDispatcher dispatcher;
  dispatcher.Register<PageRequestMsg>([](const Message&) {});
  size_t hooked_kind = kNumPayloadKinds;
  dispatcher.SetUnhandledHook(
      [&](const Message& msg) { hooked_kind = msg.payload.index(); });

  // No handler for DiffFlushMsg (a single-writer node never registers one).
  EXPECT_FALSE(dispatcher.Dispatch(Make(DiffFlushMsg{})));
  EXPECT_EQ(dispatcher.unhandled(), 1u);
  EXPECT_EQ(hooked_kind, kPayloadIndexOf<DiffFlushMsg>);
  EXPECT_FALSE(dispatcher.HasHandler(kPayloadIndexOf<DiffFlushMsg>));
  EXPECT_TRUE(dispatcher.HasHandler(kPayloadIndexOf<PageRequestMsg>));
}

TEST(DispatchTest, PerKindAndUnhandledMetrics) {
  obs::MetricsRegistry metrics;
  MessageDispatcher dispatcher;
  dispatcher.Register<LockRequestMsg>([](const Message&) {});
  dispatcher.AttachMetrics(&metrics);

  dispatcher.Dispatch(Make(LockRequestMsg{}));
  dispatcher.Dispatch(Make(LockRequestMsg{}));
  dispatcher.Dispatch(Make(ErcUpdateMsg{}));  // Unregistered.

  EXPECT_EQ(dispatcher.dispatched(kPayloadIndexOf<LockRequestMsg>), 2u);
  EXPECT_EQ(dispatcher.unhandled(), 1u);
  // counter() is find-or-create with stable pointers, so these are the same
  // counters the dispatcher updates.
  EXPECT_EQ(metrics.counter("net.dispatch.unhandled")->value(), 1u);
  std::string kind_metric = std::string("net.dispatch.") +
                            PayloadKindName(kPayloadIndexOf<LockRequestMsg>);
  EXPECT_EQ(metrics.counter(kind_metric)->value(), 2u);
}

TEST(DispatchDeathTest, DuplicateRegistrationAborts) {
  MessageDispatcher dispatcher;
  dispatcher.Register<BarrierArriveMsg>([](const Message&) {});
  EXPECT_DEATH(dispatcher.Register<BarrierArriveMsg>([](const Message&) {}),
               "handler");
}

}  // namespace
}  // namespace cvm
