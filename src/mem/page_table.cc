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

PageTable::PageTable(int num_pages, uint64_t page_size, const uint8_t* zero_page)
    : num_pages_(num_pages), page_size_(page_size), zero_page_(zero_page), entries_(num_pages) {
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
  e.zero = false;
  e.state = state;
  if (installs_counter_ != nullptr) {
    installs_counter_->Increment();
  }
}

void PageTable::InstallZero(PageId page, PageState state) {
  CVM_CHECK(zero_page_ != nullptr) << "zero frame " << page << " in a table without a zero page";
  CVM_CHECK(state != PageState::kReadWrite) << "zero frame " << page << " installed writable";
  PageEntry& e = entry(page);
  std::vector<uint8_t>().swap(e.data);
  e.zero = true;
  e.state = state;
  if (installs_counter_ != nullptr) {
    installs_counter_->Increment();
  }
}

PageEntry& PageTable::Materialize(PageId page) {
  PageEntry& e = entry(page);
  if (e.zero) {
    e.data.assign(page_size_, 0);
    e.zero = false;
  }
  return e;
}

std::vector<uint8_t> PageTable::Copy(PageId page) const {
  const PageEntry* e = Find(page);
  CVM_CHECK(e != nullptr && (e->zero || e->data.size() == page_size_))
      << "page " << page << " has no copy";
  return e->zero ? std::vector<uint8_t>(page_size_, 0) : e->data;
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
  PageEntry& e = Materialize(page);
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
