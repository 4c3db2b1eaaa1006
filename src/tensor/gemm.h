#ifndef PILOTE_TENSOR_GEMM_H_
#define PILOTE_TENSOR_GEMM_H_

#include <cstdint>
#include "common/hot_path.h"

namespace pilote {

// Dense single-precision matrix multiply kernels over raw row-major buffers.
// All kernels compute C = A_op * B_op (C is fully overwritten). The
// pool-dispatched entry points parallelize over rows of C via
// ThreadPool::Global() when profitable; each task owns its output rows.
//
// Gemm              C[m,n] = A[m,k] * B[k,n]    SAXPY rows (i-k-j loop)
// GemmTransB        C[m,n] = A[m,k] * B[n,k]^T  SAXPY rows over a scratch B^T
// GemmTransA        C[m,n] = A[k,m]^T * B[k,n]  outer products, p outer
// GemmSerial        Gemm on the calling thread
// GemmTransBSerial  GemmTransB on the calling thread with dot-product rows
//                   and no scratch: the reference kernel
//
// GemmTransB is the eager and training Linear forward: it transposes B
// once per call into a [k, n] scratch buffer (the call's one allocation)
// and runs the SAXPY kernel over it.
PILOTE_HOT_PATH void Gemm(const float* a, const float* b, float* c,
                          int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransB(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
void GemmTransA(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n);

// Single-threaded variants with no pool dispatch. The thread-pool Dispatch
// captures the row callback in a std::function — a heap allocation per
// call — so the compiled-inference executor (src/exec/), whose replay loop
// must be allocation-free, calls GemmSerial instead. GemmTransBSerial keeps
// the dot-product kernel as the reference the other kernels are pinned
// against. All variants tick the same tensor/gemm_calls metrics.
//
// Every kernel sums each output's products over p in the same order, so
// GemmTransB(a, B), GemmSerial(a, B^T) and GemmTransBSerial(a, B) are
// bit-identical, and so are the threaded and serial results of each entry
// point (batched == unbatched and plan == eager rely on this). It holds
// because gemm.cc is built without FMA contraction (see
// src/tensor/CMakeLists.txt); gemm_test pins it.
PILOTE_HOT_PATH void GemmSerial(const float* a, const float* b, float* c,
                                int64_t m, int64_t k, int64_t n);
PILOTE_HOT_PATH void GemmTransBSerial(const float* a, const float* b,
                                      float* c, int64_t m, int64_t k,
                                      int64_t n);

// Writes the transpose of the row-major [rows, cols] buffer src into dst
// as [cols, rows]. Cache-tiled; src and dst must not overlap.
void TransposeInto(const float* src, float* dst, int64_t rows, int64_t cols);

}  // namespace pilote

#endif  // PILOTE_TENSOR_GEMM_H_
