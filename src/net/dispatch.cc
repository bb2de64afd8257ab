#include "src/net/dispatch.h"

#include <utility>

#include "src/common/check.h"

namespace cvm {

void MessageDispatcher::RegisterIndex(size_t index, Handler handler) {
  CVM_CHECK_LT(index, kNumPayloadKinds);
  CVM_CHECK(handlers_[index] == nullptr)
      << "duplicate handler for payload kind " << PayloadKindName(index);
  handlers_[index] = std::move(handler);
}

void MessageDispatcher::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  // Eagerly created so the metrics CSV has a stable column set from epoch 0,
  // and so `net.dispatch.unhandled` exists (at zero) even on clean runs.
  for (size_t i = 0; i < kNumPayloadKinds; ++i) {
    kind_counters_[i] = metrics->counter(std::string("net.dispatch.") + PayloadKindName(i));
  }
  unhandled_counter_ = metrics->counter("net.dispatch.unhandled");
}

bool MessageDispatcher::Dispatch(Message& msg) {
  const size_t index = msg.payload.index();
  const Handler& handler = handlers_[index];
  if (handler == nullptr) {
    ++unhandled_;
    if (unhandled_counter_ != nullptr) {
      unhandled_counter_->Increment();
    }
    if (unhandled_hook_) {
      unhandled_hook_(msg);
    }
    return false;
  }
  ++dispatched_[index];
  if (kind_counters_[index] != nullptr) {
    kind_counters_[index]->Increment();
  }
  handler(msg);
  return true;
}

}  // namespace cvm
