#include "src/obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/common/check.h"

namespace cvm::obs {

namespace {

// Escapes a string for inclusion in a JSON string literal. Names are string
// literals under our control, but symbol-derived argument strings may carry
// arbitrary bytes.
std::string EscapeJson(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool IsFlowPhase(char phase) { return phase == 's' || phase == 't' || phase == 'f'; }

// One renderable record: an event projected onto a (pid, tid) track.
struct OutRecord {
  int pid = 0;
  NodeId tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  const TraceEvent* event = nullptr;
};

void AppendArgs(std::string& json, const TraceEvent& e) {
  json += "\"args\":{";
  bool first = true;
  auto comma = [&] {
    if (!first) {
      json += ",";
    }
    first = false;
  };
  if (e.epoch >= 0) {
    comma();
    json += "\"epoch\":";
    json += std::to_string(e.epoch);
  }
  if (e.arg_name != nullptr) {
    comma();
    json += "\"";
    json += EscapeJson(e.arg_name);
    json += "\":";
    json += std::to_string(e.arg_value);
  }
  if (e.arg2_name != nullptr) {
    comma();
    json += "\"";
    json += EscapeJson(e.arg2_name);
    json += "\":";
    json += std::to_string(e.arg2_value);
  }
  if (e.str_arg_name != nullptr && e.str_arg_value != nullptr) {
    comma();
    json += "\"";
    json += EscapeJson(e.str_arg_name);
    json += "\":\"";
    json += EscapeJson(e.str_arg_value);
    json += "\"";
  }
  json += "}";
}

}  // namespace

Tracer::Tracer(int num_nodes, const TraceConfig& config)
    : config_(config), origin_(std::chrono::steady_clock::now()) {
  CVM_CHECK_GT(num_nodes, 0);
  CVM_CHECK_GT(config_.ring_capacity, 0u);
  CVM_CHECK_GT(config_.sample_period, 0u);
  rings_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    rings_.push_back(std::make_unique<Ring>());
  }
}

uint64_t Tracer::WallNowNs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - origin_)
                                   .count());
}

void Tracer::Emit(TraceEvent event) {
  const NodeId node = std::clamp<NodeId>(event.node, 0, static_cast<NodeId>(rings_.size()) - 1);
  event.node = node;
  Ring& ring = *rings_[static_cast<size_t>(node)];
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.seq++ % config_.sample_period != 0) {
    ++ring.sampled_out;
    return;
  }
  if (event.wall_ts_ns == 0) {
    event.wall_ts_ns = WallNowNs();
  }
  ++ring.accepted;
  if (ring.count == ring.slots.size() && ring.slots.size() < config_.ring_capacity) {
    // Grow lazily up to capacity. Storage only wraps once it is
    // capacity-sized, so start is necessarily 0 here and push_back lands at
    // index count. (Drained slots below capacity are reused by the branch
    // below, never re-counted.)
    ring.slots.push_back(event);
    ++ring.count;
    return;
  }
  if (ring.count < ring.slots.size()) {
    ring.slots[(ring.start + ring.count) % ring.slots.size()] = event;
    ++ring.count;
    return;
  }
  // Full: overwrite the oldest.
  ring.slots[ring.start] = event;
  ring.start = (ring.start + 1) % ring.slots.size();
  ++ring.dropped;
}

void Tracer::Drain(NodeId node) {
  CVM_CHECK_GE(node, 0);
  CVM_CHECK_LT(node, static_cast<NodeId>(rings_.size()));
  Ring& ring = *rings_[static_cast<size_t>(node)];
  std::vector<TraceEvent> batch;
  {
    std::lock_guard<std::mutex> lock(ring.mu);
    batch.reserve(ring.count);
    for (size_t i = 0; i < ring.count; ++i) {
      batch.push_back(ring.slots[(ring.start + i) % ring.slots.size()]);
    }
    ring.start = 0;
    ring.count = 0;
  }
  if (batch.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(drained_mu_);
  drained_.insert(drained_.end(), batch.begin(), batch.end());
}

void Tracer::DrainAll() {
  for (NodeId n = 0; n < static_cast<NodeId>(rings_.size()); ++n) {
    Drain(n);
  }
}

size_t Tracer::RingSize(NodeId node) const {
  CVM_CHECK_GE(node, 0);
  CVM_CHECK_LT(node, static_cast<NodeId>(rings_.size()));
  const Ring& ring = *rings_[static_cast<size_t>(node)];
  std::lock_guard<std::mutex> lock(ring.mu);
  return ring.count;
}

uint64_t Tracer::TotalDropped() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

uint64_t Tracer::TotalSampledOut() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->sampled_out;
  }
  return total;
}

uint64_t Tracer::TotalEmitted() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->accepted;
  }
  return total;
}

std::vector<TraceEvent> Tracer::Collected() {
  DrainAll();
  std::lock_guard<std::mutex> lock(drained_mu_);
  return drained_;
}

std::string Tracer::ToChromeJson() {
  const std::vector<TraceEvent> events = Collected();

  // Flow chains must never dangle in the export: ring overflow or sampling
  // can lose any step independently, and a 't'/'f' whose 's' is gone would
  // bind to nothing (or, worse, to a later chain reusing the id). Keep only
  // chains that still have both their start and at least one later step;
  // every other flow event is suppressed.
  std::set<uint64_t> chains_with_start;
  std::set<uint64_t> chains_with_step;
  for (const TraceEvent& e : events) {
    if (!IsFlowPhase(e.phase) || e.flow_id == 0) {
      continue;
    }
    (e.phase == 's' ? chains_with_start : chains_with_step).insert(e.flow_id);
  }

  // Project each event onto its tracks: pid 0 = simulated time (only events
  // that carry a simulated timestamp), pid 1 = wall time (every event).
  // Flow events are the exception: they appear on exactly one track
  // (simulated when timestamped, wall otherwise) — a chain duplicated onto
  // both tracks would have two 's' steps with one id, which is malformed.
  std::vector<OutRecord> records;
  records.reserve(events.size() * 2);
  for (const TraceEvent& e : events) {
    if (IsFlowPhase(e.phase)) {
      if (e.flow_id == 0 || chains_with_start.count(e.flow_id) == 0 ||
          chains_with_step.count(e.flow_id) == 0) {
        continue;
      }
      if (e.sim_ts_ns >= 0) {
        records.push_back(OutRecord{0, e.node, e.sim_ts_ns / 1000.0, 0, &e});
      } else {
        records.push_back(
            OutRecord{1, e.node, static_cast<double>(e.wall_ts_ns) / 1000.0, 0, &e});
      }
      continue;
    }
    if (e.sim_ts_ns >= 0) {
      records.push_back(OutRecord{0, e.node, e.sim_ts_ns / 1000.0, e.sim_dur_ns / 1000.0, &e});
    }
    records.push_back(OutRecord{1, e.node,
                                static_cast<double>(e.wall_ts_ns) / 1000.0,
                                static_cast<double>(e.wall_dur_ns) / 1000.0, &e});
  }
  std::stable_sort(records.begin(), records.end(), [](const OutRecord& a, const OutRecord& b) {
    if (a.pid != b.pid) {
      return a.pid < b.pid;
    }
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    return a.ts_us < b.ts_us;
  });

  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Track-naming metadata.
  const char* pid_names[] = {"simulated time", "wall time"};
  for (int pid = 0; pid < 2; ++pid) {
    json += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
            ",\"tid\":0,\"args\":{\"name\":\"" + pid_names[pid] + "\"}},\n";
    for (int n = 0; n < num_nodes(); ++n) {
      json += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
              ",\"tid\":" + std::to_string(n) + ",\"args\":{\"name\":\"node " +
              std::to_string(n) + "\"}},\n";
    }
  }

  char buf[64];
  for (size_t i = 0; i < records.size(); ++i) {
    const OutRecord& r = records[i];
    const TraceEvent& e = *r.event;
    json += "{\"name\":\"" + EscapeJson(e.name) + "\",\"cat\":\"" + EscapeJson(e.cat) +
            "\",\"ph\":\"" + e.phase + "\",\"pid\":" + std::to_string(r.pid) +
            ",\"tid\":" + std::to_string(r.tid);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", r.ts_us);
    json += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", r.dur_us);
      json += buf;
    }
    if (IsFlowPhase(e.phase)) {
      // Chain id; 'f' binds to its enclosing slice ("bp":"e") so the final
      // arrow lands on the receiver's span, not after it.
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    static_cast<unsigned long long>(e.flow_id));
      json += buf;
      if (e.phase == 'f') {
        json += ",\"bp\":\"e\"";
      }
    }
    json += ",";
    if (e.phase == 'C') {
      // Counter events plot their numeric arguments as a stacked series.
      std::string args = "\"args\":{\"" +
                         EscapeJson(e.arg_name != nullptr ? e.arg_name : "value") +
                         "\":" + std::to_string(e.arg_value) + "}";
      json += args;
    } else {
      AppendArgs(json, e);
    }
    json += i + 1 < records.size() ? "},\n" : "}\n";
  }
  if (records.empty()) {
    // Every real event was suppressed or sampled out; the metadata block's
    // trailing comma would otherwise make the array invalid JSON.
    json.erase(json.size() - 2, 1);
  }
  json += "]}\n";
  return json;
}

bool Tracer::WriteChromeJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cvm::obs
