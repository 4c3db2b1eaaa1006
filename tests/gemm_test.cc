#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
  const std::vector<std::pair<int64_t, int64_t>> layers = {
      {80, 1024}, {1024, 512}, {512, 128}, {128, 64}, {64, 128}};
  Rng rng(6);
  for (const auto& [k, n] : layers) {
    Tensor w = Tensor::RandNormal(Shape::Matrix(n, k), rng, 0.0f, 0.05f);
    Tensor wt = Transpose(w);
    for (int64_t m = 1; m <= 17; ++m) {
      Tensor x = Tensor::RandNormal(Shape::Matrix(m, k), rng);
      for (int64_t i = 0; i < x.numel(); ++i) {
        if (x[i] < 0.0f) x[i] = 0.0f;
      }
      Tensor via_trans_b(Shape::Matrix(m, n));
      Tensor via_saxpy(Shape::Matrix(m, n));
      GemmTransBSerial(x.data(), w.data(), via_trans_b.data(), m, k, n);
      GemmSerial(x.data(), wt.data(), via_saxpy.data(), m, k, n);
      ASSERT_EQ(std::memcmp(via_trans_b.data(), via_saxpy.data(),
                            static_cast<size_t>(m * n) * sizeof(float)),
                0)
          << "k=" << k << " n=" << n << " m=" << m;
    }
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
                      std::make_tuple(128, 80, 128)));

}  // namespace
}  // namespace pilote
