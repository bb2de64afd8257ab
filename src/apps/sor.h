// SOR: Jacobi relaxation over a 2-D grid, the paper's barrier-only,
// no-sharing application. Each node owns a contiguous block of rows; every
// iteration reads the neighbouring blocks' boundary rows written in the
// previous epoch (always barrier-ordered) and writes its own block. Rows are
// page-padded, so writers never share pages: the detector should find no
// unsynchronized sharing at all (Table 3: 0% intervals used).
#ifndef CVM_APPS_SOR_H_
#define CVM_APPS_SOR_H_

#include <functional>
#include <string>

#include "src/apps/app.h"

namespace cvm {

class SorApp : public ParallelApp {
 public:
  struct Params {
    int rows = 66;      // Including the two fixed boundary rows.
    int cols = 64;
    int iters = 4;
    uint64_t page_size = 4096;  // For row padding; match DsmOptions.
  };

  explicit SorApp(Params params) : params_(params) {}

  std::string name() const override { return "SOR"; }
  std::string input_description() const override {
    return std::to_string(params_.rows) + "x" + std::to_string(params_.cols);
  }
  std::string sync_description() const override { return "barrier"; }
  InstructionMix instruction_mix() const override;

  void Setup(DsmSystem& system) override;
  void Run(NodeContext& ctx) override;
  bool Verify() const override { return verified_ok_; }

  // The serial reference: the rows x cols grid after `iters` Jacobi
  // iterations from InitialValue, the boundary held fixed. Calls
  // row_fn(r, values) for r = 0 .. rows-1 in order, as soon as row r's final
  // values exist, and stops once row_fn returns false; returns false then.
  // Holds a ring of three rows per iteration level, not the grid.
  static bool StreamReference(int rows, int cols, int iters,
                              const std::function<bool(int, const float*)>& row_fn);

 private:
  size_t Index(int row, int col) const { return static_cast<size_t>(row) * stride_ + col; }
  // Grid value serving as the fixed boundary condition / initial state.
  static float InitialValue(int row, int col);

  Params params_;
  size_t stride_ = 0;  // Words per padded row.
  SharedArray<float> grid_[2];
  bool verified_ok_ = false;
};

}  // namespace cvm

#endif  // CVM_APPS_SOR_H_
