#include "src/protocol/multi_writer_home_lrc.h"

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/obs/span.h"

namespace cvm {

void MultiWriterHomeLrc::RegisterHandlers(MessageDispatcher& dispatcher) {
  CoherenceProtocol::RegisterHandlers(dispatcher);
  dispatcher.Register<PageRequestMsg>([this](const Message& msg) { OnPageRequest(msg); });
  dispatcher.Register<DiffFlushMsg>([this](const Message& msg) { OnDiffFlush(msg); });
  dispatcher.Register<DiffFlushAckMsg>([this](const Message& msg) { OnDiffFlushAck(msg); });
}

void MultiWriterHomeLrc::OnReadFault(PageId page) {
  if (HomeOf(page) == host_.self()) {
    MaterializeHome(page);
    return;
  }
  FetchPage(page, /*want_write=*/false, PageState::kReadOnly);
}

void MultiWriterHomeLrc::OnWriteFault(PageId page) {
  // Any node may write after twinning its copy.
  if (!host_.pages().Readable(page)) {
    if (HomeOf(page) == host_.self()) {
      MaterializeHome(page);
    } else {
      FetchPage(page, /*want_write=*/false, PageState::kReadOnly);
    }
  }
  PageEntry& entry = host_.pages().entry(page);
  if (entry.twin == nullptr) {
    host_.pages().MakeTwin(page);
    twinned_.insert(page);
  }
  entry.state = PageState::kReadWrite;
  if (host_.write_detection() == WriteDetection::kInstrumentation) {
    host_.NoteWrite(page);
  }
}

void MultiWriterHomeLrc::OnIntervalEnd() { FlushDiffs(); }

void MultiWriterHomeLrc::FlushDiffs() {
  if (twinned_.empty()) {
    return;
  }
  obs::Span span(host_.tracer(), host_.self(), "diff.flush", "protocol", host_.timing(),
                 host_.current_epoch());
  span.SetArg("pages", twinned_.size());
  std::map<NodeId, std::vector<Diff>> by_home;
  for (PageId page : twinned_) {
    PageEntry& entry = host_.pages().entry(page);
    CVM_CHECK(entry.twin != nullptr);
    // The current frame: serving the page since the twin may have swapped it.
    Diff diff = MakeDiff(page, IntervalId{host_.self(), host_.current_interval()}, *entry.twin,
                         *entry.frame, host_.diff_obs());
    host_.timing().Charge(
        Bucket::kNone,
        host_.costs().diff_word_ns * static_cast<double>(host_.page_size() / kWordSize));
    host_.pages().DropTwin(page);
    entry.state = PageState::kReadOnly;
    if (host_.write_detection() == WriteDetection::kDiffs) {
      // §6.5: write accesses mined from the diff. Same-value overwrites are
      // invisible here — the weaker guarantee the paper describes.
      if (!diff.words.empty()) {
        host_.NoteWrite(page);
        Bitmap& written = host_.bitmaps().Record(host_.current_interval(), page).write;
        for (const DiffWord& dw : diff.words) {
          written.Set(dw.word);
        }
      }
    }
    if (HomeOf(page) == host_.self()) {
      continue;  // Home's frame already holds the writes.
    }
    if (!diff.words.empty()) {
      by_home[HomeOf(page)].push_back(std::move(diff));
    }
  }
  twinned_.clear();

  CVM_CHECK(flush_tokens_outstanding_.empty());
  const bool any_flush = !by_home.empty();
  for (auto& [home, diffs] : by_home) {
    DiffFlushMsg flush;
    flush.diffs = std::move(diffs);
    flush.token = flush_token_next_++;
    flush_tokens_outstanding_.insert(flush.token);
    host_.ChargeMessage(PayloadByteSize(flush), 0);
    host_.Send(home, std::move(flush));
  }
  if (any_flush) {
    // One ack round-trip of latency (flushes proceed in parallel).
    host_.timing().Charge(Bucket::kNone, host_.costs().MessageCost(kMessageHeaderBytes + 8));
    host_.Await([this] { return flush_tokens_outstanding_.empty(); });
  }
}

void MultiWriterHomeLrc::ApplyWriteNotices(const IntervalRecord& record) {
  for (PageId page : record.write_pages) {
    // Home bytes always include causally-flushed diffs.
    if (HomeOf(page) == host_.self()) {
      continue;
    }
    const PageEntry* entry = host_.pages().Find(page);
    CVM_CHECK(entry == nullptr || entry->twin == nullptr)
        << "write notice applied while twin outstanding";
    host_.pages().Invalidate(page);
  }
}

void MultiWriterHomeLrc::OnPageRequest(const Message& msg) {
  const auto request = std::get<PageRequestMsg>(msg.payload);
  CVM_CHECK_EQ(HomeOf(request.page), host_.self());
  MaterializeHome(request.page);
  PageReplyMsg reply;
  reply.page = request.page;
  reply.data = host_.pages().Share(request.page);
  host_.Send(request.requester, std::move(reply));
}

void MultiWriterHomeLrc::OnDiffFlush(const Message& msg) {
  const auto& flush = std::get<DiffFlushMsg>(msg.payload);
  uint64_t words = 0;
  for (const Diff& diff : flush.diffs) {
    words += diff.words.size();
  }
  if (host_.diff_obs() != nullptr && host_.diff_obs()->words_applied != nullptr) {
    host_.diff_obs()->words_applied->Add(words);
  }
  host_.TraceInstant("diff.apply", "mem", "words", words);
  for (const Diff& diff : flush.diffs) {
    CVM_CHECK_EQ(HomeOf(diff.page), host_.self());
    MaterializeHome(diff.page);
    // Frames the home served stay as served: the diff lands in its own.
    PageEntry& entry = host_.pages().MakePrivate(diff.page);
    std::vector<uint8_t>& frame = *entry.frame;
    std::vector<uint8_t>* twin = entry.twin ? &host_.pages().PrivateTwin(entry) : nullptr;
    // Apply to the frame; mirror into the twin for words the local writer
    // has not touched, so the home's own later diff does not claim remote
    // writes as its own.
    for (const DiffWord& dw : diff.words) {
      const uint64_t offset = static_cast<uint64_t>(dw.word) * kWordSize;
      CVM_CHECK_LE(offset + kWordSize, frame.size());
      if (twin != nullptr) {
        uint32_t frame_value;
        uint32_t twin_value;
        std::memcpy(&frame_value, frame.data() + offset, kWordSize);
        std::memcpy(&twin_value, twin->data() + offset, kWordSize);
        if (frame_value == twin_value) {
          std::memcpy(twin->data() + offset, &dw.value, kWordSize);
        }
      }
      std::memcpy(frame.data() + offset, &dw.value, kWordSize);
    }
  }
  host_.Send(msg.from, DiffFlushAckMsg{flush.token});
}

void MultiWriterHomeLrc::OnDiffFlushAck(const Message& msg) {
  const auto& ack = std::get<DiffFlushAckMsg>(msg.payload);
  // A stale re-delivery names no outstanding token and erases nothing, so it
  // cannot release a later flush wait early.
  flush_tokens_outstanding_.erase(ack.token);
}

}  // namespace cvm
