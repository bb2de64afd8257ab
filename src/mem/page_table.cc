#include "src/mem/page_table.h"

namespace cvm {

const char* PageStateName(PageState state) {
  switch (state) {
    case PageState::kInvalid:
      return "invalid";
    case PageState::kReadOnly:
      return "read-only";
    case PageState::kReadWrite:
      return "read-write";
  }
  return "?";
}

PageTable::PageTable(int num_pages, uint64_t page_size)
    : num_pages_(num_pages), page_size_(page_size), entries_(num_pages) {
  CVM_CHECK_GT(num_pages, 0);
}

void PageTable::AttachObservability(obs::Tracer* tracer, NodeId node, obs::Counter* twins,
                                    obs::Counter* installs, obs::Counter* invalidations) {
  tracer_ = tracer;
  obs_node_ = node;
  twins_counter_ = twins;
  installs_counter_ = installs;
  invalidations_counter_ = invalidations;
}

void PageTable::Install(PageId page, std::vector<uint8_t> data, PageState state) {
  CVM_CHECK_EQ(data.size(), page_size_);
  PageEntry& e = entry(page);
  e.data = std::move(data);
  e.state = state;
  if (installs_counter_ != nullptr) {
    installs_counter_->Increment();
  }
}

void PageTable::Invalidate(PageId page) {
  CheckPage(page);
  if (PageEntry* e = entries_.Find(page); e != nullptr) {
    e->state = PageState::kInvalid;
  }
  if (invalidations_counter_ != nullptr) {
    invalidations_counter_->Increment();
  }
}

void PageTable::MakeTwin(PageId page) {
  PageEntry& e = entry(page);
  CVM_CHECK(e.state != PageState::kInvalid);
  CVM_CHECK(!e.twin.has_value()) << "twin already exists for page " << page;
  e.twin = e.data;
  if (twins_counter_ != nullptr) {
    twins_counter_->Increment();
  }
  if (tracer_ != nullptr) {
    obs::TraceEvent event;
    event.name = "twin.create";
    event.cat = "mem";
    event.phase = 'i';
    event.node = obs_node_;
    event.arg_name = "page";
    event.arg_value = static_cast<uint64_t>(page);
    tracer_->Emit(event);
  }
}

}  // namespace cvm
