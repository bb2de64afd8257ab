#include "perfbench/trace_split.h"

#include <limits>
#include <string_view>

namespace perfbench {
namespace {

enum Kind { kFault, kFetch, kDiffFlush, kLock, kBarrier, kDetector, kNumKinds };

int KindOf(std::string_view name) {
  if (name == "page.fault.read" || name == "page.fault.write") {
    return kFault;
  }
  if (name == "page.fetch") {
    return kFetch;
  }
  if (name == "diff.flush") {
    return kDiffFlush;
  }
  if (name == "lock.acquire") {
    return kLock;
  }
  if (name == "barrier") {
    return kBarrier;
  }
  if (name.starts_with("detector.")) {
    return kDetector;
  }
  return -1;
}

struct NodeSpans {
  std::vector<Span1D> wall[kNumKinds];
  std::vector<Span1D> sim[kNumKinds];
};

double Sum(const std::vector<Span1D>& spans) {
  double total = 0;
  for (const Span1D& s : spans) {
    total += s.length();
  }
  return total;
}

constexpr double kNsPerMs = 1e6;

}  // namespace

LayerSplit SplitTrace(const std::vector<cvm::obs::TraceEvent>& events,
                      const std::vector<Span1D>& app_bodies) {
  std::vector<NodeSpans> nodes(app_bodies.size());
  for (const cvm::obs::TraceEvent& e : events) {
    if (e.phase != 'X' || e.node < 0 || static_cast<size_t>(e.node) >= nodes.size()) {
      continue;
    }
    const int kind = KindOf(e.name);
    if (kind < 0) {
      continue;
    }
    const double wall_begin = static_cast<double>(e.wall_ts_ns);
    nodes[e.node].wall[kind].push_back(
        {wall_begin, wall_begin + static_cast<double>(e.wall_dur_ns)});
    nodes[e.node].sim[kind].push_back({e.sim_ts_ns, e.sim_ts_ns + e.sim_dur_ns});
  }

  LayerSplit split;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeSpans& spans = nodes[n];
    for (const Span1D& fault : spans.wall[kFault]) {
      split.fault_self_host_ms += SelfTime(fault, spans.wall[kFetch]);
    }
    split.fetch_host_ms += Sum(spans.wall[kFetch]);
    split.diff_flush_host_ms += Sum(spans.wall[kDiffFlush]);
    split.lock_acquire_host_ms += Sum(spans.wall[kLock]);
    split.lock_acquire_sim_ms += Sum(spans.sim[kLock]);
    for (const Span1D& barrier : spans.wall[kBarrier]) {
      split.barrier_self_host_ms += SelfTime(barrier, spans.wall[kDetector]);
    }
    for (const Span1D& barrier : spans.sim[kBarrier]) {
      split.barrier_self_sim_ms += SelfTime(barrier, spans.sim[kDetector]);
    }
    split.detect_host_ms +=
        UnionLength(spans.wall[kDetector], {0, std::numeric_limits<double>::infinity()});

    std::vector<Span1D> blocking;
    for (int kind : {kFault, kFetch, kDiffFlush, kLock, kBarrier}) {
      blocking.insert(blocking.end(), spans.wall[kind].begin(), spans.wall[kind].end());
    }
    split.instr_self_host_ms += SelfTime(app_bodies[n], blocking);
  }
  for (double* ms : {&split.instr_self_host_ms, &split.fault_self_host_ms, &split.fetch_host_ms,
                     &split.diff_flush_host_ms, &split.lock_acquire_host_ms,
                     &split.lock_acquire_sim_ms, &split.barrier_self_host_ms,
                     &split.barrier_self_sim_ms, &split.detect_host_ms}) {
    *ms /= kNsPerMs;
  }
  return split;
}

}  // namespace perfbench
