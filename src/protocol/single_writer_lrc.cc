#include "src/protocol/single_writer_lrc.h"

#include <utility>

#include "src/common/check.h"

namespace cvm {

SingleWriterLrc::SingleWriterLrc(ProtocolHost& host)
    : CoherenceProtocol(host),
      am_owner_(host.pages().num_pages(), false),
      home_owner_(host.pages().num_pages(), kNoNode) {
  for (PageId p = 0; p < host_.pages().num_pages(); ++p) {
    if (HomeOf(p) == host_.self()) {
      am_owner_[p] = true;
      home_owner_[p] = host_.self();
    }
  }
}

void SingleWriterLrc::RegisterHandlers(MessageDispatcher& dispatcher) {
  CoherenceProtocol::RegisterHandlers(dispatcher);
  dispatcher.Register<PageRequestMsg>([this](const Message& msg) { OnPageRequest(msg); });
}

void SingleWriterLrc::OnReadFault(PageId page) {
  if (am_owner_[page]) {
    MaterializeHome(page);
    return;
  }
  FetchForAccess(page, /*want_write=*/false);
}

void SingleWriterLrc::OnWriteFault(PageId page) {
  if (am_owner_[page]) {
    if (!host_.pages().Readable(page)) {
      MaterializeHome(page);
    }
    host_.pages().MakePrivate(page).state = PageState::kReadWrite;
  } else {
    FetchForAccess(page, /*want_write=*/true);
  }
  host_.NoteWrite(page);
}

void SingleWriterLrc::FetchForAccess(PageId page, bool want_write) {
  const bool ownership = FetchPage(page, want_write,
                                   want_write ? PageState::kReadWrite : PageState::kReadOnly);
  if (ownership) {
    am_owner_[page] = true;
  }
  // Requests that chased the in-flight ownership are served by the caller
  // once its own access has completed (OnAccessComplete -> drain).
}

void SingleWriterLrc::OnAccessComplete(PageId page) {
  if (!pending_serves_.empty()) {
    DrainPendingServes(page);
  }
}

void SingleWriterLrc::OnIntervalEnd() {
  // Downgrade pages written this interval so the next interval's first
  // write faults again and generates a fresh write notice.
  for (PageId page : host_.current_writes()) {
    PageEntry& entry = host_.pages().entry(page);
    if (entry.state == PageState::kReadWrite) {
      entry.state = PageState::kReadOnly;
    }
  }
}

void SingleWriterLrc::InvalidateUnlessOwner(const std::vector<PageId>& pages) {
  for (PageId page : pages) {
    // The owner's copy reflects the whole serialized page history.
    if (am_owner_[page]) {
      continue;
    }
    host_.pages().Invalidate(page);
  }
}

void SingleWriterLrc::ApplyWriteNotices(const IntervalRecord& record) {
  InvalidateUnlessOwner(record.write_pages);
}

void SingleWriterLrc::ServePage(const PageRequestMsg& request) {
  CVM_CHECK(am_owner_[request.page]);
  if (!host_.pages().Readable(request.page)) {
    MaterializeHome(request.page);
  }
  PageReplyMsg reply;
  reply.page = request.page;
  reply.data = host_.pages().Share(request.page);
  if (request.want_write) {
    reply.grants_ownership = true;
    am_owner_[request.page] = false;
    // Keep a (stale-able) read copy: the frame both nodes now share.
    host_.pages().entry(request.page).state = PageState::kReadOnly;
  }
  host_.Send(request.requester, std::move(reply));
}

void SingleWriterLrc::HandleForwardedPageRequest(const PageRequestMsg& request) {
  if (am_owner_[request.page]) {
    ServePage(request);
    return;
  }
  // Ownership is in flight to this node (the home serialized the transfer
  // order); serve once the granting reply is installed.
  pending_serves_[request.page].push_back(request);
}

void SingleWriterLrc::DrainPendingServes(PageId page) {
  auto it = pending_serves_.find(page);
  if (it == pending_serves_.end() || !am_owner_[page]) {
    return;
  }
  std::vector<PageRequestMsg> queued = std::move(it->second);
  pending_serves_.erase(it);
  // Read requests belong to this node's tenure and go first; the single
  // write request (if any) carries ownership to the next tenure.
  for (const PageRequestMsg& request : queued) {
    if (!request.want_write) {
      ServePage(request);
    }
  }
  for (const PageRequestMsg& request : queued) {
    if (request.want_write) {
      ServePage(request);
    }
  }
}

void SingleWriterLrc::OnPageRequest(const Message& msg) {
  const auto request = std::get<PageRequestMsg>(msg.payload);
  // The home is the manager and serializes transfers.
  if (!request.forwarded) {
    CVM_CHECK_EQ(HomeOf(request.page), host_.self());
    const NodeId target = home_owner_[request.page];
    CVM_CHECK_NE(target, kNoNode);
    CVM_CHECK_NE(target, request.requester)
        << "owner re-requested page " << request.page << " it already owns";
    if (request.want_write) {
      home_owner_[request.page] = request.requester;
    }
    PageRequestMsg forwarded = request;
    forwarded.forwarded = true;
    if (target == host_.self()) {
      HandleForwardedPageRequest(forwarded);
    } else {
      host_.Send(target, forwarded);
    }
    return;
  }
  HandleForwardedPageRequest(request);
}

}  // namespace cvm
