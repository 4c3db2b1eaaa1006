#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

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
// the inner j loop is a contiguous SAXPY the compiler vectorizes. The
// compiled plan's GEMM steps run this over a transposed weight.
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
// Row-tiled like GemmRows: four independent accumulators share one
// streamed b_row, so the weight matrix is read once per tile (this is the
// eager and training Linear forward kernel). Each output sums its
// products over p in the same order as GemmRows over B^T, which is what
// keeps the two bit-identical when neither is FMA-contracted.
void GemmTransBRows(const float* a, const float* b, float* c,
                    int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
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
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      float acc2 = 0.0f;
      float acc3 = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float b_jp = b_row[p];
        acc0 += a0[p] * b_jp;
        acc1 += a1[p] * b_jp;
        acc2 += a2[p] * b_jp;
        acc3 += a3[p] * b_jp;
      }
      c0[j] = acc0;
      c1[j] = acc1;
      c2[j] = acc2;
      c3[j] = acc3;
    }
  }
  for (; i < row_end; ++i) {
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
  Dispatch(m, k, n, [=](int64_t begin, int64_t end) {
    GemmTransBRows(a, b, c, begin, end, k, n);
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
  // C[m,n] = sum_p A[p,m]^T * B[p,n]. Outer-product accumulation keeps both
  // input walks contiguous; parallelizing would race on C, so compute the
  // full product serially (these shapes are small: gradient accumulations).
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) continue;
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

}  // namespace pilote
