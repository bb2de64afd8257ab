// Tracing overhead bench (Figure-3 style, but for the observability layer
// itself): runs FFT on 8 nodes three ways — tracing off, plain tracing, and
// tracing with causal flow events — and reports the wall-clock overhead each
// layer adds. Flow tracing stamps a TraceContext on every DSM message and
// emits two extra events per message, so this is the bench that keeps its
// cost honest: CI asserts wall_s(trace+flows) <= 2 x wall_s(trace).
//
// Writes BENCH_obs.json (validated by tools/check_bench_json.py) and prints
// a human-readable table.
//
// Each repetition runs the three modes in turn and every mode keeps its best
// wall time. The full run is FFT 512x512, so one tracing-off run lasts a few
// tenths of a second and host noise stays small against it.
//
// Usage: bench_obs_overhead [--smoke]
//   --smoke   FFT 64x64 for CI (seconds, not minutes)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/fft.h"
#include "src/common/table.h"
#include "src/dsm/dsm.h"
#include "src/obs/tracer.h"

namespace {

using namespace cvm;

struct ModeResult {
  std::string mode;
  double wall_s = 0;          // Best of the repetitions.
  double sim_ms = 0;
  uint64_t trace_events = 0;  // Events accepted into rings.
  uint64_t flow_events = 0;   // The s/t/f subset.
};

constexpr int kNodes = 8;
constexpr int kReps = 3;

// One FFT run in `result.mode`, folded into `result`: the wall time keeps the
// minimum over the repetitions, the other fields are the latest run's.
void RunOnce(int fft_rows, int rep, ModeResult& result) {
  DsmOptions options = bench::PaperOptions(kNodes);
  options.trace.trace_enabled = result.mode != "off";
  options.trace.flow_events = result.mode == "trace+flows";
  // Rings must hold a full epoch of an 8-node FFT without overwriting,
  // otherwise the drop path distorts the comparison between modes.
  options.trace.ring_capacity = 1u << 18;

  FftApp::Params params;
  params.rows = fft_rows;
  params.cols = fft_rows;
  auto app = std::make_unique<FftApp>(params);
  DsmSystem system(options);
  app->Setup(system);
  const auto start = std::chrono::steady_clock::now();
  RunResult run = system.Run([&app](NodeContext& ctx) { app->Run(ctx); });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!app->Verify()) {
    std::fprintf(stderr, "error: FFT result failed verification in mode %s\n",
                 result.mode.c_str());
    std::exit(1);
  }
  // Min across reps: the least-interfered-with run is the honest cost of
  // the work itself; anything above it is host noise.
  if (rep == 0 || wall_s < result.wall_s) {
    result.wall_s = wall_s;
  }
  result.sim_ms = run.sim_time_ns / 1e6;
  if (system.tracer() != nullptr) {
    result.trace_events = system.tracer()->TotalEmitted();
    uint64_t flow = 0;
    for (const obs::TraceEvent& e : system.tracer()->Collected()) {
      if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
        ++flow;
      }
    }
    result.flow_events = flow;
  }
}

bool WriteObsJson(const std::string& path, const std::vector<ModeResult>& modes,
                  double off_wall_s, double trace_wall_s) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"app\": \"FFT\", \"procs\": %d, \"mode\": \"%s\", \"wall_s\": %.4f, "
                  "\"sim_ms\": %.3f, \"trace_events\": %llu, \"flow_events\": %llu, "
                  "\"overhead_vs_off\": %.4f, \"overhead_vs_trace\": %.4f}%s\n",
                  kNodes, m.mode.c_str(), m.wall_s, m.sim_ms,
                  static_cast<unsigned long long>(m.trace_events),
                  static_cast<unsigned long long>(m.flow_events),
                  off_wall_s > 0 ? m.wall_s / off_wall_s : 0.0,
                  trace_wall_s > 0 ? m.wall_s / trace_wall_s : 0.0,
                  i + 1 < modes.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_obs_overhead [--smoke]\n");
      return 2;
    }
  }
  const int fft_rows = smoke ? 64 : 512;
  std::printf("observability overhead: FFT %dx%d on %d nodes, best of %d rep(s)\n\n", fft_rows,
              fft_rows, kNodes, kReps);

  std::vector<ModeResult> modes;
  for (const char* mode : {"off", "trace", "trace+flows"}) {
    modes.push_back(ModeResult{mode});
  }
  // Rep-major: each repetition cycles all three modes, so warm-up and host
  // drift land on every mode alike rather than on whichever runs first.
  for (int rep = 0; rep < kReps; ++rep) {
    for (ModeResult& mode : modes) {
      RunOnce(fft_rows, rep, mode);
    }
  }
  const double off_wall_s = modes[0].wall_s;
  const double trace_wall_s = modes[1].wall_s;

  TablePrinter table({"Mode", "Wall s", "vs off", "vs trace", "Events", "Flow events"});
  for (const ModeResult& m : modes) {
    table.AddRow({m.mode, TablePrinter::Fixed(m.wall_s, 3),
                  off_wall_s > 0 ? TablePrinter::Fixed(m.wall_s / off_wall_s, 2) + "x" : "-",
                  trace_wall_s > 0 ? TablePrinter::Fixed(m.wall_s / trace_wall_s, 2) + "x" : "-",
                  TablePrinter::WithThousands(m.trace_events),
                  TablePrinter::WithThousands(m.flow_events)});
  }
  table.Print();

  if (!WriteObsJson("BENCH_obs.json", modes, off_wall_s, trace_wall_s)) {
    std::fprintf(stderr, "error: cannot write BENCH_obs.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_obs.json\n");
  return 0;
}
