// Flow-event tests: causal chains ('s'/'t'/'f' trace events sharing an id)
// must always export whole or not at all. Ring overflow and sampling can
// drop any step independently, so the exporter suppresses every chain that
// lost its start or all of its later steps — a flow id in the JSON never
// dangles. Also covers the end-to-end behavior: a DSM run with flows on
// emits cross-node chains for its message traffic and stays deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"
#include "src/net/network.h"
#include "src/obs/tracer.h"
#include "tools/json_mini.h"

namespace cvm {
namespace {

obs::TraceConfig FlowConfig(size_t ring_capacity = 1 << 14, uint32_t sample_period = 1) {
  obs::TraceConfig config;
  config.trace_enabled = true;
  config.flow_events = true;
  config.ring_capacity = ring_capacity;
  config.sample_period = sample_period;
  return config;
}

obs::TraceEvent FlowEvent(char phase, NodeId node, uint64_t id, double sim_ts_ns) {
  obs::TraceEvent event;
  event.name = "PageRequest";
  event.cat = "flow";
  event.phase = phase;
  event.node = node;
  event.flow_id = id;
  event.sim_ts_ns = sim_ts_ns;
  return event;
}

// Parses an exported trace and groups flow phases by chain id.
std::map<std::string, std::string> FlowPhasesById(const std::string& json) {
  tools::JsonValue root;
  std::string error;
  EXPECT_TRUE(tools::JsonParser::Parse(json, &root, &error)) << error;
  std::map<std::string, std::string> phases;
  for (const tools::JsonValue& e : root.at("traceEvents").array) {
    const std::string ph = e.at("ph").str_or("");
    if (ph == "s" || ph == "t" || ph == "f") {
      phases[e.at("id").str_or("")] += ph;
    }
  }
  return phases;
}

TEST(FlowTest, CompleteChainExportsAllSteps) {
  obs::Tracer tracer(3, FlowConfig());
  tracer.Emit(FlowEvent('s', 0, 7, 100));
  tracer.Emit(FlowEvent('t', 1, 7, 200));
  tracer.Emit(FlowEvent('f', 2, 7, 300));
  const auto phases = FlowPhasesById(tracer.ToChromeJson());
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases.at("0x7"), "stf");
}

TEST(FlowTest, FinishWhoseStartWasOverwrittenIsDropped) {
  // Node 0's ring holds 4 events; the chain's 's' goes in first and is then
  // overwritten by unrelated instants. The surviving 'f' on node 1 must NOT
  // be exported — it would bind to nothing (or a recycled id).
  obs::Tracer tracer(2, FlowConfig(/*ring_capacity=*/4));
  tracer.Emit(FlowEvent('s', 0, 9, 100));
  for (int i = 0; i < 8; ++i) {
    obs::TraceEvent filler;
    filler.name = "filler";
    filler.cat = "test";
    filler.node = 0;
    tracer.Emit(filler);
  }
  tracer.Emit(FlowEvent('f', 1, 9, 500));
  EXPECT_GT(tracer.TotalDropped(), 0u);
  const auto phases = FlowPhasesById(tracer.ToChromeJson());
  EXPECT_EQ(phases.count("0x9"), 0u);
}

TEST(FlowTest, LoneStartIsDropped) {
  // An 's' whose every later step was lost is equally useless: an arrow
  // start pointing nowhere. Chains export only with both ends present.
  obs::Tracer tracer(2, FlowConfig());
  tracer.Emit(FlowEvent('s', 0, 11, 100));
  const auto phases = FlowPhasesById(tracer.ToChromeJson());
  EXPECT_EQ(phases.count("0xb"), 0u);
}

TEST(FlowTest, SampledChainsNeverDangle) {
  // Sampling (1 of 3) shoots holes in many chains; whatever survives to the
  // export must still be whole: every id has an 's' and at least one later
  // step, in timestamp order. The three-step chains put two events on node
  // 0's ring and one on node 1's, so the per-ring sampling counters drift
  // out of phase: some chains keep s+t (exportable), others keep only their
  // 'f' (must be suppressed).
  obs::Tracer tracer(2, FlowConfig(1 << 14, /*sample_period=*/3));
  for (uint64_t id = 1; id <= 300; ++id) {
    tracer.Emit(FlowEvent('s', 0, id, static_cast<double>(id * 10)));
    tracer.Emit(FlowEvent('t', 1, id, static_cast<double>(id * 10 + 4)));
    tracer.Emit(FlowEvent('f', 0, id, static_cast<double>(id * 10 + 8)));
  }
  EXPECT_GT(tracer.TotalSampledOut(), 0u);
  const auto phases = FlowPhasesById(tracer.ToChromeJson());
  ASSERT_FALSE(phases.empty());  // 1-in-3 sampling leaves some whole chains.
  EXPECT_LT(phases.size(), 300u);  // ...but not all of them.
  for (const auto& [id, seq] : phases) {
    EXPECT_EQ(seq.front(), 's') << "chain " << id << " lost its start: " << seq;
    EXPECT_GT(seq.size(), 1u) << "chain " << id << " start dangles";
    EXPECT_EQ(seq.find('s', 1), std::string::npos) << "chain " << id << " has two starts";
  }
}

TEST(FlowTest, DsmRunEmitsCrossNodeChains) {
  // End to end: a run with page, lock, and barrier traffic exports flow
  // chains whose steps land on different node tracks — the sender's 's' and
  // the receiver's 'f' (or 't' for forwarded messages) share the id.
  const int kNodes = 4;
  DsmOptions options;
  options.num_nodes = kNodes;
  options.page_size = 256;
  options.max_shared_bytes = 64 * 1024;
  options.trace.trace_enabled = true;
  auto system = std::make_unique<DsmSystem>(options);
  auto data = SharedArray<int32_t>::Alloc(*system, "data", 64 * kNodes);
  auto total = SharedVar<int32_t>::Alloc(*system, "total");
  system->Run([&](NodeContext& ctx) {
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int i = 0; i < 64; ++i) {
        data.Set(ctx, ctx.id() * 64 + i, i);
      }
      ctx.Lock(0);
      total.Set(ctx, total.Get(ctx) + 1);
      ctx.Unlock(0);
      ctx.Barrier();
    }
  });

  ASSERT_NE(system->tracer(), nullptr);
  tools::JsonValue root;
  std::string error;
  ASSERT_TRUE(tools::JsonParser::Parse(system->tracer()->ToChromeJson(), &root, &error)) << error;

  std::map<std::string, std::set<int>> tracks_by_id;
  std::map<std::string, std::string> phases_by_id;
  std::set<std::string> flow_names;
  for (const tools::JsonValue& e : root.at("traceEvents").array) {
    const std::string ph = e.at("ph").str_or("");
    if (ph != "s" && ph != "t" && ph != "f") {
      continue;
    }
    const std::string id = e.at("id").str_or("");
    tracks_by_id[id].insert(static_cast<int>(e.at("tid").num_or(-1)));
    phases_by_id[id] += ph;
    flow_names.insert(e.at("name").str_or(""));
  }
  ASSERT_FALSE(tracks_by_id.empty());

  size_t cross_node = 0;
  for (const auto& [id, tracks] : tracks_by_id) {
    // The export is grouped by track, not chain order, so check membership:
    // exactly one start plus at least one later step per id.
    const std::string& seq = phases_by_id[id];
    EXPECT_EQ(std::count(seq.begin(), seq.end(), 's'), 1) << "chain " << id << ": " << seq;
    EXPECT_GT(seq.size(), 1u) << "chain " << id << " dangles";
    if (tracks.size() > 1) {
      ++cross_node;
    }
  }
  EXPECT_GT(cross_node, 0u);
  // Lock and barrier rounds all leave flows; page traffic too (the writers
  // fault their pages in from node 0's initial copies).
  for (const char* expected : {"LockGrant", "BarrierArrive", "BarrierRelease", "PageRequest"}) {
    EXPECT_TRUE(flow_names.count(expected)) << "missing flow chain for " << expected;
  }
}

TEST(FlowTest, FlowWireCostIsDeterministic) {
  // Flow tracing adds the TraceContext to the modeled wire, so it shifts
  // simulated time — but deterministically: two identical runs agree bit
  // for bit, and both exceed the flow-free run (strictly more wire bytes).
  double sim_ns[3] = {0, 0, 0};
  uint64_t bytes[3] = {0, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {
    DsmOptions options;
    options.num_nodes = 4;
    options.page_size = 256;
    options.max_shared_bytes = 64 * 1024;
    options.trace.trace_enabled = true;
    options.trace.flow_events = pass > 0;
    DsmSystem system(options);
    auto data = SharedArray<int32_t>::Alloc(system, "data", 64 * 4);
    RunResult result = system.Run([&](NodeContext& ctx) {
      for (int epoch = 0; epoch < 2; ++epoch) {
        for (int i = 0; i < 64; ++i) {
          data.Set(ctx, ctx.id() * 64 + i, i);
        }
        ctx.Barrier();
      }
    });
    sim_ns[pass] = result.sim_time_ns;
    bytes[pass] = result.net.bytes;
  }
  EXPECT_EQ(sim_ns[1], sim_ns[2]);
  EXPECT_EQ(bytes[1], bytes[2]);
  EXPECT_GT(bytes[1], bytes[0]);
  EXPECT_GE(sim_ns[1], sim_ns[0]);
}

TEST(FlowTest, BarrierReceivesChargeTheFlowContextOnEveryBarrierShape) {
  // Every barrier's arrival and release sit on a barrier-only run's
  // critical path, and flow tracing grows each by the context bytes, so
  // turning flows on must add exactly 2 x barriers x per_byte_ns x
  // kTraceContextWireBytes of simulated time — flat or tree alike.
  for (const bool tree : {false, true}) {
    double sim_ns[2] = {0, 0};
    uint64_t barriers = 0;
    for (int flows = 0; flows < 2; ++flows) {
      DsmOptions options;
      options.num_nodes = 2;
      options.barrier_tree = tree;
      options.barrier_fanout = 1;
      options.trace.trace_enabled = true;
      options.trace.flow_events = flows == 1;
      const RunResult result = RunDsmApp(options, nullptr, [](NodeContext& ctx) {
        for (int i = 0; i < 3; ++i) {
          ctx.Compute(1000);
          ctx.Barrier();
        }
      });
      sim_ns[flows] = result.sim_time_ns;
      barriers = result.barriers;
    }
    const CostParams costs;
    EXPECT_EQ(sim_ns[1] - sim_ns[0], 2.0 * static_cast<double>(barriers) * costs.per_byte_ns *
                                         static_cast<double>(obs::kTraceContextWireBytes))
        << (tree ? "tree" : "flat");
  }
}

TEST(FlowTest, OnlyAStampedContextIsChargedOnTheWire) {
  // The fabric stamps nothing itself: a context the sender stamped travels
  // and costs kTraceContextWireBytes, an unstamped one costs nothing, on the
  // clean path and on the reliable transport alike.
  const fault::FaultInjector injector(
      fault::FaultPlan::FromProfile(fault::FaultProfile::kLossy, 1), 2);
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "clean");
    Network net(2);
    if (reliable) {
      net.AttachFaultInjector(&injector);
    }
    Message m;
    m.from = 0;
    m.to = 1;
    m.payload = PageRequestMsg{};
    net.Send(m);
    const auto plain = net.Recv(1);
    ASSERT_TRUE(plain.has_value());
    EXPECT_FALSE(plain->ctx.stamped());
    EXPECT_EQ(plain->wire_bytes, PayloadByteSize(plain->payload));

    m.ctx.origin = 0;
    m.ctx.causal_id = 7;
    net.Send(m);
    const auto stamped = net.Recv(1);
    ASSERT_TRUE(stamped.has_value());
    EXPECT_EQ(stamped->ctx.causal_id, 7u);
    EXPECT_EQ(stamped->wire_bytes,
              PayloadByteSize(stamped->payload) + obs::kTraceContextWireBytes);
  }
}

}  // namespace
}  // namespace cvm
