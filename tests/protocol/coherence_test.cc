// Protocol-layer capability queries and strategy wiring: the enum helpers in
// protocol_kind.h plus the per-protocol handler sets a live node registers.
#include "src/protocol/protocol_kind.h"

#include <gtest/gtest.h>

#include <string>

#include "src/dsm/dsm.h"
#include "src/net/dispatch.h"
#include "src/protocol/coherence.h"

namespace cvm {
namespace {

TEST(ProtocolKindTest, NamesAreStableIdentifiers) {
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kSingleWriterLrc), "SingleWriterLrc");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kMultiWriterHomeLrc),
               "MultiWriterHomeLrc");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kEagerRcInvalidate),
               "EagerRcInvalidate");
}

TEST(ProtocolKindTest, CapabilityQueries) {
  // Only the twinning/diffing protocol can mine write notices from diffs.
  EXPECT_TRUE(ProtocolSupportsDiffWriteDetection(ProtocolKind::kMultiWriterHomeLrc));
  EXPECT_FALSE(ProtocolSupportsDiffWriteDetection(ProtocolKind::kSingleWriterLrc));
  EXPECT_FALSE(ProtocolSupportsDiffWriteDetection(ProtocolKind::kEagerRcInvalidate));

  EXPECT_TRUE(ProtocolInvalidatesEagerly(ProtocolKind::kEagerRcInvalidate));
  EXPECT_FALSE(ProtocolInvalidatesEagerly(ProtocolKind::kSingleWriterLrc));
  EXPECT_FALSE(ProtocolInvalidatesEagerly(ProtocolKind::kMultiWriterHomeLrc));
}

// Which message kinds each protocol's node handles. Built by constructing a
// real (never-run) system so the test exercises the same registration path
// the service loop depends on.
class HandlerSetTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HandlerSetTest, RegistersExactlyTheKindsItOwns) {
  DsmOptions options;
  options.num_nodes = 2;
  options.protocol = GetParam();
  DsmSystem system(options);
  system.Run([](NodeContext&) {});
  const Node& node = system.node(0);
  const MessageDispatcher& dispatcher = node.dispatcher();
  EXPECT_EQ(node.protocol().kind(), GetParam());

  // Universal kinds: page replies (every protocol fetches pages), locks,
  // barriers + detection rounds, run aborts.
  for (size_t kind : {kPayloadIndexOf<PageReplyMsg>, kPayloadIndexOf<LockRequestMsg>,
                      kPayloadIndexOf<LockGrantMsg>, kPayloadIndexOf<BarrierArriveMsg>,
                      kPayloadIndexOf<BarrierReleaseMsg>,
                      kPayloadIndexOf<BitmapRequestMsg>, kPayloadIndexOf<BitmapReplyMsg>,
                      kPayloadIndexOf<CompareRequestMsg>, kPayloadIndexOf<BitmapShipMsg>,
                      kPayloadIndexOf<CompareReplyMsg>, kPayloadIndexOf<RunAbortMsg>}) {
    EXPECT_TRUE(dispatcher.HasHandler(kind)) << PayloadKindName(kind);
  }

  const bool multi_writer =
      ProtocolSupportsDiffWriteDetection(GetParam());  // Twins + diffs.
  EXPECT_EQ(dispatcher.HasHandler(kPayloadIndexOf<DiffFlushMsg>), multi_writer);
  EXPECT_EQ(dispatcher.HasHandler(kPayloadIndexOf<DiffFlushAckMsg>), multi_writer);

  const bool eager = ProtocolInvalidatesEagerly(GetParam());
  EXPECT_EQ(dispatcher.HasHandler(kPayloadIndexOf<ErcUpdateMsg>), eager);
  EXPECT_EQ(dispatcher.HasHandler(kPayloadIndexOf<ErcAckMsg>), eager);

  // Nothing arrived without a handler during the (trivial) run.
  EXPECT_EQ(dispatcher.unhandled(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, HandlerSetTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return ProtocolKindName(param_info.param);
                         });

}  // namespace
}  // namespace cvm
