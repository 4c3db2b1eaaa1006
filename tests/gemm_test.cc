#include <cstring>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace {

// Naive triple-loop reference used to validate the optimized kernels.
Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape::Matrix(a.rows(), b.cols()));
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// The paper backbone's Linear layers as (in, out): 80 -> 1024 -> 512 ->
// 128 -> 64 -> 128.
const std::vector<std::pair<int64_t, int64_t>>& PaperLayers() {
  static const std::vector<std::pair<int64_t, int64_t>> layers = {
      {80, 1024}, {1024, 512}, {512, 128}, {128, 64}, {64, 128}};
  return layers;
}

// Standard normal values with the negatives zeroed, as a preceding ReLU
// (forward activations) or its backward mask (gradients) leaves them.
Tensor ReluZeroed(int64_t rows, int64_t cols, Rng& rng) {
  Tensor t = Tensor::RandNormal(Shape::Matrix(rows, cols), rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (t[i] < 0.0f) t[i] = 0.0f;
  }
  return t;
}

// C[m,n] = A[k,m]^T * B[k,n] as plain outer products over the whole of C,
// p outermost and no zero skipping: the serial order every output of
// GemmTransA must reproduce.
void OuterProductTransA(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n) {
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += a[p * m + i] * b[p * n + j];
      }
    }
  }
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

TEST(GemmTest, SmallKnownProduct) {
  Tensor a(Shape::Matrix(2, 3), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape::Matrix(3, 2), {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor(Shape::Matrix(2, 2), {58, 64, 139, 154})));
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal(Shape::Matrix(6, 6), rng);
  Tensor eye(Shape::Matrix(6, 6));
  for (int64_t i = 0; i < 6; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a));
}

TEST(GemmTest, TransBMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::RandNormal(Shape::Matrix(5, 8), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(7, 8), rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, Transpose(b)), 1e-4f));
}

TEST(GemmTest, TransAMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::RandNormal(Shape::Matrix(8, 5), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(8, 7), rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-4f));
}

TEST(GemmTest, MismatchedInnerDimIsFatal) {
  Tensor a(Shape::Matrix(2, 3));
  Tensor b(Shape::Matrix(4, 2));
  EXPECT_DEATH(MatMul(a, b), "MatMul");
}

TEST(GemmTest, TransposeInvolution) {
  Rng rng(4);
  Tensor a = Tensor::RandNormal(Shape::Matrix(3, 9), rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0f, 0.0f));
}

TEST(GemmTest, TransposeCrossesTileEdges) {
  // 70 x 45 spans several transpose tiles with ragged last tiles on both
  // axes.
  Rng rng(5);
  Tensor a = Tensor::RandNormal(Shape::Matrix(70, 45), rng);
  Tensor t = Transpose(a);
  ASSERT_EQ(t.rows(), 45);
  ASSERT_EQ(t.cols(), 70);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) ASSERT_EQ(t(c, r), a(r, c));
  }
}

// The compiled plan computes x * W^T as GemmSerial(x, W^T) over a weight
// transposed at capture, while the eager forward runs
// GemmTransBSerial(x, W). Both sum each output over p in the same order,
// so they agree bit for bit only if neither kernel fuses multiply-adds:
// this pins the -ffp-contract=off build setting of gemm.cc. Paper backbone
// shapes (80 -> 1024 -> 512 -> 128 -> 64 -> 128), every batch size up to
// 17 (whole 4-row tiles plus every tail length), and inputs with the
// exact zeros a preceding ReLU leaves.
TEST(GemmTest, SaxpyOverTransposedWeightMatchesTransBBitForBit) {
  Rng rng(6);
  for (const auto& [k, n] : PaperLayers()) {
    Tensor w = Tensor::RandNormal(Shape::Matrix(n, k), rng, 0.0f, 0.05f);
    Tensor wt = Transpose(w);
    for (int64_t m = 1; m <= 17; ++m) {
      Tensor x = ReluZeroed(m, k, rng);
      Tensor via_trans_b(Shape::Matrix(m, n));
      Tensor via_saxpy(Shape::Matrix(m, n));
      GemmTransBSerial(x.data(), w.data(), via_trans_b.data(), m, k, n);
      GemmSerial(x.data(), wt.data(), via_saxpy.data(), m, k, n);
      ASSERT_TRUE(SameBits(via_trans_b, via_saxpy))
          << "k=" << k << " n=" << n << " m=" << m;
    }
  }
}

// The eager and training forward: GemmTransB transposes the weight into
// scratch and runs the SAXPY kernel over it, split across the global pool
// at the larger batches. Every output must equal the dot-product reference
// bit for bit at every batch size, including the single-row and ragged
// tails of the 4-row tiles and the pool's uneven row ranges.
TEST(GemmTest, PooledTransBMatchesSerialReferenceBitForBit) {
  Rng rng(7);
  for (const auto& [k, n] : PaperLayers()) {
    Tensor w = Tensor::RandNormal(Shape::Matrix(n, k), rng, 0.0f, 0.05f);
    for (int64_t m : {1, 3, 5, 64, 256, 257}) {
      Tensor x = ReluZeroed(m, k, rng);
      Tensor pooled(Shape::Matrix(m, n));
      Tensor reference(Shape::Matrix(m, n));
      GemmTransB(x.data(), w.data(), pooled.data(), m, k, n);
      GemmTransBSerial(x.data(), w.data(), reference.data(), m, k, n);
      ASSERT_TRUE(SameBits(pooled, reference))
          << "k=" << k << " n=" << n << " m=" << m;
    }
  }
}

// The weight gradient: dW[out, in] = dY[m, out]^T * X[m, in], with GemmTransA
// split over rows of dW across the global pool.
TEST(GemmTest, PooledTransAMatchesSerialOuterProductBitForBit) {
  Rng rng(8);
  for (const auto& [in, out] : PaperLayers()) {
    for (int64_t m : {1, 3, 5, 64, 256, 257}) {
      Tensor dy = ReluZeroed(m, out, rng);
      Tensor x = ReluZeroed(m, in, rng);
      Tensor pooled(Shape::Matrix(out, in));
      Tensor reference(Shape::Matrix(out, in));
      GemmTransA(dy.data(), x.data(), pooled.data(), out, m, in);
      OuterProductTransA(dy.data(), x.data(), reference.data(), out, m, in);
      ASSERT_TRUE(SameBits(pooled, reference))
          << "in=" << in << " out=" << out << " m=" << m;
    }
  }
}

// Several threads share ThreadPool::Global() through the GEMM dispatch at
// once, as training beside an eager fallback does. Shapes are above the
// parallel-dispatch threshold, so each call splits its rows across the
// pool while the other caller's tasks are queued too. Each caller has its
// own operands, so a scratch buffer or output row shared between calls
// shows up as a wrong result, not only as a race report.
TEST(GemmTest, ConcurrentCallersShareTheGlobalPool) {
  constexpr int64_t kM = 64;
  constexpr int64_t kK = 512;
  constexpr int64_t kN = 128;
  constexpr int kCallers = 2;
  constexpr int kRounds = 25;
  struct Operands {
    Tensor x, w, dy, forward_ref, grad_ref;
  };
  std::vector<Operands> operands;
  Rng rng(9);
  for (int t = 0; t < kCallers; ++t) {
    Operands o{ReluZeroed(kM, kK, rng),
               Tensor::RandNormal(Shape::Matrix(kN, kK), rng, 0.0f, 0.05f),
               ReluZeroed(kM, kN, rng), Tensor(Shape::Matrix(kM, kN)),
               Tensor(Shape::Matrix(kN, kK))};
    GemmTransBSerial(o.x.data(), o.w.data(), o.forward_ref.data(), kM, kK,
                     kN);
    OuterProductTransA(o.dy.data(), o.x.data(), o.grad_ref.data(), kN, kM,
                       kK);
    operands.push_back(std::move(o));
  }

  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&operands, &mismatches, t] {
      const Operands& o = operands[t];
      Tensor forward(Shape::Matrix(kM, kN));
      Tensor grad(Shape::Matrix(kN, kK));
      for (int r = 0; r < kRounds; ++r) {
        GemmTransB(o.x.data(), o.w.data(), forward.data(), kM, kK, kN);
        GemmTransA(o.dy.data(), o.x.data(), grad.data(), kN, kM, kK);
        if (!SameBits(forward, o.forward_ref)) ++mismatches[t];
        if (!SameBits(grad, o.grad_ref)) ++mismatches[t];
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "caller " << t;
  }
}

// Parameterized sweep over shapes, including sizes large enough to cross
// the kernel's parallel-dispatch threshold and degenerate 1-row/1-col
// cases.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  Tensor a = Tensor::RandNormal(Shape::Matrix(m, k), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  EXPECT_TRUE(AllClose(MatMul(a, b), ReferenceMatMul(a, b), 1e-3f, 1e-3f))
      << "m=" << m << " k=" << k << " n=" << n;
}

TEST_P(GemmShapeTest, TransBMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 7 + k * 13 + n * 17));
  Tensor a = Tensor::RandNormal(Shape::Matrix(m, k), rng);
  Tensor bt = Tensor::RandNormal(Shape::Matrix(n, k), rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, bt),
                       ReferenceMatMul(a, Transpose(bt)), 1e-3f, 1e-3f));
}

TEST_P(GemmShapeTest, TransAMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 19 + k * 23 + n * 29));
  Tensor at = Tensor::RandNormal(Shape::Matrix(k, m), rng);
  Tensor b = Tensor::RandNormal(Shape::Matrix(k, n), rng);
  EXPECT_TRUE(AllClose(MatMulTransA(at, b),
                       ReferenceMatMul(Transpose(at), b), 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 5),
                      std::make_tuple(7, 1, 3), std::make_tuple(4, 6, 1),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 17, 29),
                      std::make_tuple(64, 128, 32),
                      std::make_tuple(128, 80, 128),
                      // 2 * 96 * 256 * 160 = 7.9 MFLOP, above the
                      // parallel-dispatch threshold (4.2 MFLOP), so the
                      // pooled row split runs on multi-core hosts.
                      std::make_tuple(96, 256, 160)));

}  // namespace
}  // namespace pilote
