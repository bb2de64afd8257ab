// TSP: branch-and-bound traveling salesman, the paper's lock-based app with
// *intentional* data races. A lock-protected work queue hands out tour
// prefixes; workers expand them depth-first, pruning against the global tour
// bound. The bound is written under a lock but read WITHOUT synchronization
// inside the search loop — a deliberate performance trick: a stale bound
// only causes redundant work, never an incorrect result. The detector must
// report these read-write races (the paper's first true positive).
#ifndef CVM_APPS_TSP_H_
#define CVM_APPS_TSP_H_

#include <string>
#include <vector>

#include "src/apps/app.h"

namespace cvm {

class TspApp : public ParallelApp {
 public:
  struct Params {
    int num_cities = 12;
    int prefix_depth = 3;  // Length of the enqueued tour prefixes.
    uint64_t seed = 42;
    uint64_t page_size = 4096;  // Distance-matrix rows are page-padded.
  };

  explicit TspApp(Params params) : params_(params) {}

  std::string name() const override { return "TSP"; }
  std::string input_description() const override {
    return std::to_string(params_.num_cities) + " cities";
  }
  std::string sync_description() const override { return "lock"; }
  InstructionMix instruction_mix() const override;

  void Setup(DsmSystem& system) override;
  void Run(NodeContext& ctx) override;
  bool Verify() const override { return verified_ok_; }

  // Address of the racy bound, for tests and the replay example.
  GlobalAddr bound_addr() const { return min_tour_.addr(); }

  // Lock ids a run uses (the queue lock and the bound lock).
  static int LocksNeeded() { return kBoundLock + 1; }

 private:
  static constexpr LockId kQueueLock = 0;
  static constexpr LockId kBoundLock = 1;
  static constexpr int32_t kInfinity = 0x3fffffff;

  // Deterministic distance matrix for the given seed.
  std::vector<int32_t> MakeDistances() const;
  // Serial branch-and-bound for verification.
  int32_t SolveSerial() const;

  Params params_;
  int num_tasks_ = 0;
  size_t dist_stride_ = 0;  // Words per padded distance-matrix row.
  SharedArray<int32_t> dist_;
  SharedArray<int32_t> queue_;     // num_tasks_ x prefix_depth city ids.
  SharedVar<int32_t> queue_head_;  // Guarded by kQueueLock.
  SharedVar<int32_t> min_tour_;    // Written under kBoundLock, read racily.
  SharedArray<int32_t> best_tour_; // Guarded by kBoundLock.
  bool verified_ok_ = false;
};

}  // namespace cvm

#endif  // CVM_APPS_TSP_H_
