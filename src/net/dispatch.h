// Typed message-dispatch registry: a handler table keyed by the Payload
// variant alternative, replacing a hand-written if-else chain over message
// kinds. Components (coherence protocol, lock manager, barrier coordinator)
// register handlers for the message kinds they own; anything that arrives
// without a handler is counted and surfaced as a `net.dispatch.unhandled`
// metric plus an optional hook (the node emits a trace instant) instead of
// being dropped silently.
//
// The dispatcher is single-threaded by construction: Dispatch runs only on
// the owning node's one thread, so the per-kind tallies are plain integers.
// The optional obs counters are atomics and safe to read from anywhere.
#ifndef CVM_NET_DISPATCH_H_
#define CVM_NET_DISPATCH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "src/net/message.h"
#include "src/obs/metrics.h"

namespace cvm {

// Index of payload type T inside the Payload variant, at compile time.
template <typename T, typename Variant>
struct PayloadAlternativeIndex;

template <typename T, typename... Ts>
struct PayloadAlternativeIndex<T, std::variant<Ts...>> {
  static constexpr size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Ts>...};
    for (size_t i = 0; i < sizeof...(Ts); ++i) {
      if (matches[i]) {
        return i;
      }
    }
    return sizeof...(Ts);  // static_assert below rejects this.
  }();
  static_assert(value < sizeof...(Ts), "type is not a Payload alternative");
};

template <typename T>
inline constexpr size_t kPayloadIndexOf = PayloadAlternativeIndex<T, Payload>::value;

class MessageDispatcher {
 public:
  // A handler may consume the message: the frame is dead once Dispatch
  // returns, so moving its payload out spares a copy.
  using Handler = std::function<void(Message&)>;

  // Registers the handler for payload type T. At most one handler per kind;
  // re-registration is a programming error.
  template <typename T>
  void Register(Handler handler) {
    RegisterIndex(kPayloadIndexOf<T>, std::move(handler));
  }

  // Called (after counting) for any message with no registered handler.
  void SetUnhandledHook(Handler hook) { unhandled_hook_ = std::move(hook); }

  // Creates the per-kind `net.dispatch.<Kind>` counters and the
  // `net.dispatch.unhandled` counter. Null registry = metrics off.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Routes one message; its handler may move the payload out. Returns false
  // (and counts) if no handler is registered for its payload kind.
  bool Dispatch(Message& msg);
  bool Dispatch(Message&& msg) { return Dispatch(msg); }

  bool HasHandler(size_t kind_index) const {
    return kind_index < kNumPayloadKinds && handlers_[kind_index] != nullptr;
  }
  uint64_t dispatched(size_t kind_index) const {
    return kind_index < kNumPayloadKinds ? dispatched_[kind_index] : 0;
  }
  uint64_t unhandled() const { return unhandled_; }

 private:
  void RegisterIndex(size_t index, Handler handler);

  std::array<Handler, kNumPayloadKinds> handlers_{};
  std::array<uint64_t, kNumPayloadKinds> dispatched_{};
  uint64_t unhandled_ = 0;
  Handler unhandled_hook_;
  std::array<obs::Counter*, kNumPayloadKinds> kind_counters_{};
  obs::Counter* unhandled_counter_ = nullptr;
};

}  // namespace cvm

#endif  // CVM_NET_DISPATCH_H_
