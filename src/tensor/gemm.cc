#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace pilote {
namespace {

// One counting site shared by all three kernels; the disabled cost is a
// relaxed load + branch per GEMM call (amortized over the whole kernel).
void CountGemm(int64_t m, int64_t k, int64_t n) {
  PILOTE_METRIC_COUNT("tensor/gemm_calls", 1);
  PILOTE_METRIC_COUNT("tensor/gemm_flops", 2 * m * k * n);
}

// Rough per-kernel FLOP threshold below which threading overhead dominates.
constexpr int64_t kParallelFlopThreshold = 1 << 22;

// Row-tile width: B is streamed once per TILE rows of A instead of once
// per row, which is what makes batched inference cheaper per row than
// row-at-a-time (the weight matrix is the dominant memory traffic at our
// skinny shapes). Per-element accumulation order over p is unchanged, so
// tiled and untiled results are bit-identical — the serving layer relies
// on batched == unbatched predictions.
constexpr int64_t kRowTile = 4;

// Computes rows [row_begin, row_end) of C = A * B with an i-k-j loop order:
// the inner j loop is a contiguous SAXPY the compiler vectorizes.
// GemmTransB and the compiled plan's GEMM steps run this over a transposed
// weight.
void GemmRows(const float* a, const float* b, float* c, int64_t row_begin,
              int64_t row_end, int64_t k, int64_t n) {
  int64_t i = row_begin;
  for (; i + kRowTile <= row_end; i += kRowTile) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    std::memset(c0, 0, static_cast<size_t>(kRowTile * n) * sizeof(float));
    for (int64_t p = 0; p < k; ++p) {
      const float a0p = a0[p];
      const float a1p = a1[p];
      const float a2p = a2[p];
      const float a3p = a3[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        const float b_pj = b_row[j];
        c0[j] += a0p * b_pj;
        c1[j] += a1p * b_pj;
        c2[j] += a2p * b_pj;
        c3[j] += a3p * b_pj;
      }
    }
  }
  for (; i < row_end; ++i) {
    float* c_row = c + i * n;
    std::memset(c_row, 0, static_cast<size_t>(n) * sizeof(float));
    const float* a_row = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

// Rows of C = A * B^T: each output element is a contiguous dot product.
// The sum over p does not vectorize without reassociation, so this runs
// only behind GemmTransBSerial, the reference the SAXPY paths are pinned
// against. Each output sums its products over p in the same order as
// GemmRows over B^T, which is what keeps the two bit-identical when
// neither is FMA-contracted.
void GemmTransBRows(const float* a, const float* b, float* c,
                    int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = acc;
    }
  }
}

// Rows [row_begin, row_end) of C = A^T * B with A stored [k, m]: outer
// products accumulated with p outer, so both input walks are contiguous
// and each output sums over p in order. A task writes only its own rows.
void GemmTransARows(const float* a, const float* b, float* c,
                    int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                    int64_t n) {
  std::memset(c + row_begin * n, 0,
              static_cast<size_t>((row_end - row_begin) * n) * sizeof(float));
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) continue;
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

void Dispatch(int64_t m, int64_t k, int64_t n,
              const std::function<void(int64_t, int64_t)>& rows_fn) {
  const int64_t flops = 2 * m * k * n;
  ThreadPool& pool = ThreadPool::Global();
  if (flops < kParallelFlopThreshold || pool.num_threads() <= 1) {
    rows_fn(0, m);
  } else {
    pool.ParallelForRanges(m, rows_fn);
  }
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  CountGemm(m, k, n);
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmRows(a, b, c, begin, end, k, n);
  });
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  // One transpose per call buys the vectorized SAXPY kernel for all m rows;
  // the sums over p keep their order, so the result matches
  // GemmTransBSerial bit for bit.
  // hotpath-ok: per-call B^T scratch, the documented budget of this kernel
  std::unique_ptr<float[]> scratch(new float[static_cast<size_t>(k * n)]);
  const float* bt = scratch.get();
  TransposeInto(b, scratch.get(), n, k);
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmRows(a, bt, c, begin, end, k, n);
  });
}

void GemmSerial(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  CountGemm(m, k, n);
  GemmRows(a, b, c, 0, m, k, n);
}

void GemmTransBSerial(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n) {
  CountGemm(m, k, n);
  GemmTransBRows(a, b, c, 0, m, k, n);
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  CountGemm(m, k, n);
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmTransARows(a, b, c, begin, end, m, k, n);
  });
}

void TransposeInto(const float* src, float* dst, int64_t rows, int64_t cols) {
  // Square tiles, each writing contiguous runs of output rows. A plain
  // walk of a wide matrix misses the cache on every strided access; an
  // 8-row tile keeps its source lines within one L1 set's ways even when
  // the row stride is a multiple of 4 KiB, as in the paper backbone's
  // weights. Plan capture and every GemmTransB call run this.
  constexpr int64_t kTile = 8;
  for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
    const int64_t c1 = std::min(cols, c0 + kTile);
    for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
      const int64_t r1 = std::min(rows, r0 + kTile);
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t r = r0; r < r1; ++r) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

}  // namespace pilote
