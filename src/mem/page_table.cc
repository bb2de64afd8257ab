#include "src/mem/page_table.h"

#include <utility>

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

namespace {

// Replaces a shared frame with a private copy of it.
void Unshare(Frame& frame, bool& shared) {
  if (shared) {
    frame = std::make_shared<std::vector<uint8_t>>(*frame);
    shared = false;
  }
}

}  // namespace

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

void PageTable::Install(PageId page, Frame frame, PageState state, bool shared) {
  CVM_CHECK(frame != nullptr && frame->size() == page_size_) << "page " << page;
  PageEntry& e = entry(page);
  e.frame = std::move(frame);
  e.shared = shared;
  e.state = state;
  if (installs_counter_ != nullptr) {
    installs_counter_->Increment();
  }
}

Frame PageTable::Share(PageId page) {
  PageEntry& e = entry(page);
  CVM_CHECK(e.frame != nullptr) << "page " << page << " has no copy";
  e.shared = true;
  return e.frame;
}

PageEntry& PageTable::MakePrivate(PageEntry& e) {
  Unshare(e.frame, e.shared);
  return e;
}

std::vector<uint8_t>& PageTable::PrivateTwin(PageEntry& e) {
  CVM_CHECK(e.twin != nullptr);
  Unshare(e.twin, e.twin_shared);
  return *e.twin;
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
  CVM_CHECK(e.twin == nullptr) << "twin already exists for page " << page;
  e.twin_shared = e.shared;
  e.twin = e.shared ? e.frame : std::make_shared<std::vector<uint8_t>>(*e.frame);
  MakePrivate(e);
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
