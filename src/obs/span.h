// RAII complete-span ('X') helper: captures simulated + wall time at
// construction, emits one event at destruction. A null tracer makes both
// ends a single branch.
// Header-only so every layer (protocol engines, lock manager, barrier
// coordinator, node core) traces with the same idiom.
#ifndef CVM_OBS_SPAN_H_
#define CVM_OBS_SPAN_H_

#include "src/common/types.h"
#include "src/obs/tracer.h"
#include "src/sim/cost_model.h"

namespace cvm::obs {

class Span {
 public:
  Span(Tracer* tracer, NodeId node, const char* name, const char* cat,
       const NodeTiming& timing, EpochId epoch)
      : tracer_(tracer), timing_(timing) {
    if (tracer_ == nullptr) {
      return;
    }
    event_.name = name;
    event_.cat = cat;
    event_.phase = 'X';
    event_.node = node;
    event_.epoch = epoch;
    sim_start_ns_ = timing_.now_ns();
    wall_start_ns_ = tracer_->WallNowNs();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void SetArg(const char* name, uint64_t value) {
    event_.arg_name = name;
    event_.arg_value = value;
  }

  ~Span() {
    if (tracer_ == nullptr) {
      return;
    }
    event_.sim_ts_ns = sim_start_ns_;
    event_.sim_dur_ns = timing_.now_ns() - sim_start_ns_;
    event_.wall_ts_ns = wall_start_ns_;
    event_.wall_dur_ns = tracer_->WallNowNs() - wall_start_ns_;
    tracer_->Emit(event_);
  }

 private:
  Tracer* const tracer_;
  const NodeTiming& timing_;
  TraceEvent event_;
  double sim_start_ns_ = 0;
  uint64_t wall_start_ns_ = 0;
};

}  // namespace cvm::obs

#endif  // CVM_OBS_SPAN_H_
