#include "src/apps/sor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"

namespace cvm {

InstructionMix SorApp::instruction_mix() const {
  // Calibrated to Table 2's SOR row: 342 stack, 1304 static, 48717 library,
  // 3910 CVM, 126 instrumented candidates.
  InstructionMix mix;
  mix.stack = 342;
  mix.static_data = 1304;
  mix.library = 48717;
  mix.cvm = 3910;
  mix.candidate = 126;
  mix.candidate_private_block = 0.0;
  mix.candidate_private_interproc = 0.55;
  return mix;
}

float SorApp::InitialValue(int row, int col) {
  return static_cast<float>((row * 31 + col * 17) % 97) / 97.0f;
}

bool SorApp::StreamReference(int rows, int cols, int iters,
                             const std::function<bool(int, const float*)>& row_fn) {
  // ring[k][r % 3] is row r after k iterations. Row r of level k needs rows
  // r-1..r+1 of level k-1, so the levels run as a wavefront: once level 0
  // has row r, level k can compute row r - k.
  const size_t width = static_cast<size_t>(cols);
  std::vector<float> ring(static_cast<size_t>(iters + 1) * 3 * width);
  auto row = [&](int level, int r) {
    return ring.data() + (static_cast<size_t>(level) * 3 + static_cast<size_t>(r % 3)) * width;
  };
  for (int step = 0; step < rows + iters; ++step) {
    for (int level = 0; level <= iters; ++level) {
      const int r = step - level;
      if (r < 0 || r >= rows) {
        continue;
      }
      float* out = row(level, r);
      if (level == 0 || r == 0 || r == rows - 1) {
        for (int c = 0; c < cols; ++c) {
          out[c] = InitialValue(r, c);
        }
      } else {
        const float* up = row(level - 1, r - 1);
        const float* mid = row(level - 1, r);
        const float* down = row(level - 1, r + 1);
        out[0] = InitialValue(r, 0);
        out[cols - 1] = InitialValue(r, cols - 1);
        for (int c = 1; c < cols - 1; ++c) {
          out[c] = 0.25f * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
        }
      }
      if (level == iters && !row_fn(r, out)) {
        return false;
      }
    }
  }
  return true;
}

void SorApp::Setup(DsmSystem& system) {
  CVM_CHECK_GE(params_.rows, 3);
  CVM_CHECK_GE(params_.cols, 3);
  stride_ = (static_cast<size_t>(params_.cols) * kWordSize + params_.page_size - 1) /
            params_.page_size * (params_.page_size / kWordSize);
  const size_t words = static_cast<size_t>(params_.rows) * stride_;
  grid_[0] = SharedArray<float>::Alloc(system, "sor_grid0", words);
  grid_[1] = SharedArray<float>::Alloc(system, "sor_grid1", words);
}

void SorApp::Run(NodeContext& ctx) {
  const int p = ctx.num_nodes();
  const int interior = params_.rows - 2;
  const int per_node = (interior + p - 1) / p;
  const int first = 1 + ctx.id() * per_node;
  const int last = std::min(params_.rows - 2, first + per_node - 1);

  // Parallel initialization: each node fills its own row block, the usual
  // Splash2-style locality optimization. The fixed boundary rows belong to
  // exactly one owner each: row 0 to node 0, the bottom row to whichever
  // node owns the final interior row (idle nodes initialize nothing).
  if (first <= last) {
    const int init_first = (ctx.id() == 0) ? 0 : first;
    const int init_last = (last == params_.rows - 2) ? params_.rows - 1 : last;
    for (int r = init_first; r <= init_last; ++r) {
      for (int c = 0; c < params_.cols; ++c) {
        grid_[0].Set(ctx, Index(r, c), InitialValue(r, c));
        grid_[1].Set(ctx, Index(r, c), InitialValue(r, c));
      }
    }
  }
  ctx.Barrier();

  int src = 0;
  // Instrumented private scratch row (the pointer-based staging buffer the
  // original keeps — SOR's modest private access rate in Table 3).
  LocalArray<float> scratch(ctx, static_cast<size_t>(params_.cols));
  for (int iter = 0; iter < params_.iters; ++iter) {
    const int dst = 1 - src;
    for (int r = first; r <= last; ++r) {
      for (int c = 1; c < params_.cols - 1; ++c) {
        const float up = grid_[src].Get(ctx, Index(r - 1, c));
        const float down = grid_[src].Get(ctx, Index(r + 1, c));
        const float left = grid_[src].Get(ctx, Index(r, c - 1));
        const float right = grid_[src].Get(ctx, Index(r, c + 1));
        scratch.Set(c, 0.25f * (up + down + left + right));
        ctx.Compute(16);
      }
      for (int c = 1; c < params_.cols - 1; ++c) {
        grid_[dst].Set(ctx, Index(r, c), scratch.Get(c));
      }
    }
    ctx.Barrier();
    src = dst;
  }

  // Node 0 verifies the full grid against the streamed serial reference,
  // reading each interior row through the DSM once the reference has it.
  if (ctx.id() == 0) {
    const SharedArray<float>& result = grid_[src];
    verified_ok_ = StreamReference(
        params_.rows, params_.cols, params_.iters, [&](int r, const float* expected) {
          if (r == 0 || r == params_.rows - 1) {
            return true;
          }
          for (int c = 1; c < params_.cols - 1; ++c) {
            if (!(std::fabs(result.Get(ctx, Index(r, c)) - expected[c]) < 1e-5f)) {
              return false;
            }
          }
          return true;
        });
  }
}

}  // namespace cvm
