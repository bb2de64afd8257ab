#include "src/protocol/coherence.h"

#include <utility>

#include "src/common/check.h"
#include "src/obs/span.h"
#include "src/protocol/eager_rc.h"
#include "src/protocol/multi_writer_home_lrc.h"
#include "src/protocol/single_writer_lrc.h"

namespace cvm {

CoherenceProtocol::CoherenceProtocol(ProtocolHost& host)
    : host_(host), home_materialized_(host.pages().num_pages(), false) {}

CoherenceProtocol::~CoherenceProtocol() = default;

std::unique_ptr<CoherenceProtocol> CoherenceProtocol::Make(ProtocolKind kind,
                                                           ProtocolHost& host) {
  switch (kind) {
    case ProtocolKind::kSingleWriterLrc:
      return std::make_unique<SingleWriterLrc>(host);
    case ProtocolKind::kMultiWriterHomeLrc:
      return std::make_unique<MultiWriterHomeLrc>(host);
    case ProtocolKind::kEagerRcInvalidate:
      return std::make_unique<EagerRcInvalidate>(host);
  }
  CVM_CHECK(false) << "unknown protocol kind " << static_cast<int>(kind);
  return nullptr;
}

void CoherenceProtocol::RegisterHandlers(MessageDispatcher& dispatcher) {
  dispatcher.Register<PageReplyMsg>([this](Message& msg) { OnPageReply(msg); });
}

void CoherenceProtocol::MaterializeHome(PageId page) {
  PageEntry& entry = host_.pages().entry(page);
  if (!home_materialized_[page]) {
    CVM_CHECK_EQ(HomeOf(page), host_.self());
    if (const std::vector<uint8_t>* poked = host_.PokedPage(page); poked != nullptr) {
      host_.pages().Install(page, std::make_shared<std::vector<uint8_t>>(*poked),
                            PageState::kReadOnly, /*shared=*/false);
    } else {
      host_.pages().Install(page, host_.zero_frame(), PageState::kReadOnly, /*shared=*/true);
    }
    home_materialized_[page] = true;
  } else if (entry.state == PageState::kInvalid) {
    // Home bytes are always current w.r.t. causally-required (flushed)
    // modifications under the home-based protocol, so revalidation is local.
    entry.state = PageState::kReadOnly;
  }
}

bool CoherenceProtocol::FetchPage(PageId page, bool want_write, PageState install_state) {
  CVM_CHECK(!page_reply_.has_value());
  CVM_CHECK_EQ(page_fetch_pending_, -1);
  page_fetch_pending_ = page;
  obs::Span span(host_.tracer(), host_.self(), "page.fetch", "mem", host_.timing(),
                 host_.current_epoch());
  span.SetArg("page", static_cast<uint64_t>(page));
  host_.CountPageFetch();
  PageRequestMsg request;
  request.page = page;
  request.want_write = want_write;
  request.requester = host_.self();
  // All requests route through the page's home: the multi-writer home owns
  // the data; the single-writer home is the manager that serializes
  // ownership transfers (two hops worst case).
  const size_t request_bytes = PayloadByteSize(request);
  host_.Send(HomeOf(page), std::move(request));
  host_.Await([this] { return page_reply_.has_value(); });
  PageReplyMsg reply = std::move(*page_reply_);
  page_reply_.reset();
  page_fetch_pending_ = -1;
  CVM_CHECK_EQ(reply.page, page);

  // Round-trip cost: request out, page back.
  host_.ChargeMessage(request_bytes, 0);
  host_.ChargeMessage(PayloadByteSize(reply), 0);

  const bool ownership = reply.grants_ownership;
  host_.pages().Install(page, std::move(reply.data), install_state, /*shared=*/true);
  return ownership;
}

void CoherenceProtocol::OnPageReply(Message& msg) {
  auto& reply = std::get<PageReplyMsg>(msg.payload);
  if (reply.page != page_fetch_pending_ || page_reply_.has_value()) {
    return;  // Matches no outstanding fetch: stale re-delivery.
  }
  page_reply_ = std::move(reply);  // The frame is dead after dispatch.
}

}  // namespace cvm
