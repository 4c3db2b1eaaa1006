#ifndef PILOTE_TENSOR_GEMM_H_
#define PILOTE_TENSOR_GEMM_H_

#include <cstdint>
#include "common/hot_path.h"

namespace pilote {

// Dense single-precision matrix multiply kernels over raw row-major buffers.
// All kernels compute C = A_op * B_op (C is fully overwritten) and
// parallelize over rows of C via ThreadPool::Global() when profitable.
//
// Gemm:        C[m,n] = A[m,k] * B[k,n]
// GemmTransB:  C[m,n] = A[m,k] * B[n,k]^T
// GemmTransA:  C[m,n] = A[k,m]^T * B[k,n]
PILOTE_HOT_PATH void Gemm(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransB(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n);

// Single-threaded variants running the same row kernels over the full row
// range with no pool dispatch. The thread-pool Dispatch captures the row
// callback in a std::function — a heap allocation per call — so the
// compiled-inference executor (src/exec/), whose replay loop must be
// allocation-free, calls these instead. Results are bit-identical to the
// parallel entry points (identical per-element accumulation order), and
// both variants tick the same tensor/gemm_calls metrics.
//
// GemmSerial(a, B^T) is also bit-identical to GemmTransBSerial(a, B): the
// compiled plan relies on this to run the vectorizable SAXPY kernel over a
// weight transposed at capture. It holds because gemm.cc is built without
// FMA contraction (see src/tensor/CMakeLists.txt); gemm_test pins it.
PILOTE_HOT_PATH void GemmSerial(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransBSerial(const float* a, const float* b,
                                      float* c, int64_t m, int64_t k,
                                      int64_t n);

}  // namespace pilote

#endif  // PILOTE_TENSOR_GEMM_H_
