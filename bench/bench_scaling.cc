// Cluster-scaling bench for the hierarchical barrier + epoch-batched
// detection path (docs/ARCHITECTURE.md "Combine-tree barrier"): sweeps the
// node count over {8, 64, 256, 1024} and, at every size, runs the same
// deterministic neighbor-halo workload three ways —
//
//   flat   the legacy single-master barrier and per-epoch detection,
//   tree   --barrier-tree with fanout 8 (in-tree check-list aggregation),
//   tree+  tree plus --detect-batch=2.
//
// The workload gives every node one page: each epoch it writes the head of
// its own page and word kRaceWord of its right neighbor's page (a W/W race
// with the neighbor's own write, one racing word per page per epoch), then
// reads an untouched word of that page (a false-sharing check pair). Race
// population is exact and size-independent in structure: 3 epochs x nodes
// W/W reports.
//
// Asserts, and exits nonzero otherwise:
//   - every mode reports the identical race list at every size,
//   - detect time and wire bytes per epoch grow sub-quadratically in the
//     node count along the tree curve (log-log slope < 2 between
//     consecutive sizes).
//
// Writes BENCH_scaling.json (validated by tools/check_bench_json.py) and
// prints a human-readable table.
//
// Usage: bench_scaling [--smoke]
//   --smoke   sweep {8, 64} only, for CI
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace {

using namespace cvm;

constexpr uint64_t kPageSize = 512;
constexpr int kWordsPerPage = static_cast<int>(kPageSize / sizeof(int32_t));
constexpr int kOwnWrites = 4;      // Words 0..3 of the node's own page.
constexpr int kRaceWord = 2;       // Neighbor writes it too -> W/W race.
constexpr int kStaleWord = 9;      // Read-only word -> false-sharing pair.
constexpr int kExplicitBarriers = 2;  // Plus the implicit final barrier.
constexpr int kTreeFanout = 8;

struct ModeResult {
  std::string mode;
  double detect_ns_per_epoch = 0;
  double wire_bytes_per_epoch = 0;
  double sim_ms = 0;
  double wall_s = 0;
  uint64_t races = 0;
  // Compact identity of the full report list, order-sensitive.
  std::vector<std::string> signature;
};

ModeResult RunOne(int nodes, const std::string& mode) {
  DsmOptions options;
  options.num_nodes = nodes;
  options.page_size = kPageSize;
  options.max_shared_bytes = static_cast<uint64_t>(nodes) * kPageSize + (1 << 20);
  if (mode != "flat") {
    options.barrier_tree = true;
    options.barrier_fanout = kTreeFanout;
  }
  if (mode == "tree+batch") {
    options.detect_batch = 2;
  }

  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "halo",
                                          static_cast<size_t>(nodes) * kWordsPerPage);

  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result = system.Run([&](NodeContext& ctx) {
    const int id = ctx.id();
    const int neighbor = (id + 1) % ctx.num_nodes();
    const size_t own = static_cast<size_t>(id) * kWordsPerPage;
    const size_t next = static_cast<size_t>(neighbor) * kWordsPerPage;
    for (int epoch = 0; epoch <= kExplicitBarriers; ++epoch) {
      for (int w = 0; w < kOwnWrites; ++w) {
        data.Set(ctx, own + w, id * 100 + epoch * 10 + w);
      }
      data.Set(ctx, next + kRaceWord, id);          // Unsynchronized: the race.
      (void)data.Get(ctx, next + kStaleWord);       // Concurrent read, no race.
      if (epoch < kExplicitBarriers) {
        ctx.Barrier();
      }
      // The run's implicit final barrier checks the last epoch.
    }
  });

  ModeResult out;
  out.mode = mode;
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const uint64_t epochs = std::max<uint64_t>(1, result.barriers);
  out.detect_ns_per_epoch = PsToNs(result.pipeline.detect_ps) / static_cast<double>(epochs);
  out.wire_bytes_per_epoch =
      static_cast<double>(result.net.bytes) / static_cast<double>(epochs);
  out.sim_ms = result.sim_time_ns / 1e6;
  out.races = result.races.size();
  out.signature.reserve(result.races.size());
  for (const RaceReport& race : result.races) {
    char sig[128];
    std::snprintf(sig, sizeof(sig), "%d:%d:%u:%d.%d:%d.%d:%d",
                  static_cast<int>(race.kind), race.page, race.word,
                  race.interval_a.node, race.interval_a.index, race.interval_b.node,
                  race.interval_b.index, race.epoch);
    out.signature.push_back(sig);
  }
  return out;
}

struct SizeRow {
  int nodes = 0;
  ModeResult flat;
  ModeResult tree;
  ModeResult batch;
  bool reports_match = false;
};

bool WriteScalingJson(const std::string& path, const std::vector<SizeRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    char buffer[640];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"nodes\": %d, \"races\": %llu, \"reports_match\": %s,\n"
                  "   \"flat_detect_ns_per_epoch\": %.1f, \"tree_detect_ns_per_epoch\": %.1f,\n"
                  "   \"batch_detect_ns_per_epoch\": %.1f,\n"
                  "   \"flat_wire_bytes_per_epoch\": %.1f, \"tree_wire_bytes_per_epoch\": %.1f,\n"
                  "   \"batch_wire_bytes_per_epoch\": %.1f}%s\n",
                  r.nodes, static_cast<unsigned long long>(r.flat.races),
                  r.reports_match ? "true" : "false", r.flat.detect_ns_per_epoch,
                  r.tree.detect_ns_per_epoch, r.batch.detect_ns_per_epoch,
                  r.flat.wire_bytes_per_epoch, r.tree.wire_bytes_per_epoch,
                  r.batch.wire_bytes_per_epoch, i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// log-log slope of metric between consecutive sweep sizes; the acceptance
// bar is < 2 (sub-quadratic) for the tree curves.
double Exponent(double small_value, double big_value, int small_n, int big_n) {
  if (small_value <= 0 || big_value <= 0) {
    return 0;
  }
  return std::log(big_value / small_value) /
         std::log(static_cast<double>(big_n) / static_cast<double>(small_n));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_scaling [--smoke]\n");
      return 2;
    }
  }
  const std::vector<int> sizes = smoke ? std::vector<int>{8, 64}
                                       : std::vector<int>{8, 64, 256, 1024};
  std::printf("barrier/detection scaling sweep: %zu size(s), fanout %d, "
              "%d epochs per run\n\n",
              sizes.size(), kTreeFanout, kExplicitBarriers + 1);

  std::vector<SizeRow> rows;
  for (int nodes : sizes) {
    SizeRow row;
    row.nodes = nodes;
    row.flat = RunOne(nodes, "flat");
    row.tree = RunOne(nodes, "tree");
    row.batch = RunOne(nodes, "tree+batch");
    row.reports_match =
        row.flat.signature == row.tree.signature && row.flat.signature == row.batch.signature;
    const uint64_t expected_races =
        static_cast<uint64_t>(nodes) * (kExplicitBarriers + 1);
    if (!row.reports_match) {
      std::fprintf(stderr,
                   "error: race reports diverge at %d nodes "
                   "(flat %zu, tree %zu, tree+batch %zu reports)\n",
                   nodes, row.flat.signature.size(), row.tree.signature.size(),
                   row.batch.signature.size());
      return 1;
    }
    if (row.flat.races != expected_races) {
      std::fprintf(stderr, "error: expected %llu W/W races at %d nodes, got %llu\n",
                   static_cast<unsigned long long>(expected_races), nodes,
                   static_cast<unsigned long long>(row.flat.races));
      return 1;
    }
    std::printf("  %4d nodes: %llu races, reports identical across modes "
                "(flat %.2fs, tree %.2fs, tree+batch %.2fs wall)\n",
                nodes, static_cast<unsigned long long>(row.flat.races), row.flat.wall_s,
                row.tree.wall_s, row.batch.wall_s);
    rows.push_back(std::move(row));
  }

  TablePrinter table({"Nodes", "Mode", "Detect ms/ep", "Wire MB/ep", "Sim ms"});
  for (const SizeRow& row : rows) {
    for (const ModeResult* m : {&row.flat, &row.tree, &row.batch}) {
      table.AddRow({std::to_string(row.nodes), m->mode,
                    TablePrinter::Fixed(m->detect_ns_per_epoch / 1e6, 3),
                    TablePrinter::Fixed(m->wire_bytes_per_epoch / 1e6, 3),
                    TablePrinter::Fixed(m->sim_ms, 1)});
    }
  }
  std::printf("\n");
  table.Print();

  bool subquadratic = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    const SizeRow& a = rows[i - 1];
    const SizeRow& b = rows[i];
    const double detect_exp =
        Exponent(a.tree.detect_ns_per_epoch, b.tree.detect_ns_per_epoch, a.nodes, b.nodes);
    const double wire_exp =
        Exponent(a.tree.wire_bytes_per_epoch, b.tree.wire_bytes_per_epoch, a.nodes, b.nodes);
    std::printf("\n%d -> %d nodes: tree detect-time exponent %.2f, "
                "tree wire-bytes exponent %.2f (bar: < 2)",
                a.nodes, b.nodes, detect_exp, wire_exp);
    if (detect_exp >= 2.0 || wire_exp >= 2.0) {
      subquadratic = false;
    }
  }
  std::printf("\n");
  if (!subquadratic) {
    std::fprintf(stderr, "error: tree scaling curve is not sub-quadratic\n");
    return 1;
  }

  if (!WriteScalingJson("BENCH_scaling.json", rows)) {
    std::fprintf(stderr, "error: cannot write BENCH_scaling.json\n");
    return 1;
  }
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}
