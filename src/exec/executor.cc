#include "exec/executor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/numerics_guard.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace pilote {
namespace exec {
namespace {

// Reusable scoped claim of the executor arena: lock-free test-and-set so
// the replay path never takes a mutex.
class ArenaClaim {
 public:
  explicit ArenaClaim(std::atomic<bool>& busy) : busy_(busy) {
    claimed_ = !busy_.exchange(true, std::memory_order_acquire);
  }
  ~ArenaClaim() {
    if (claimed_) busy_.store(false, std::memory_order_release);
  }

  ArenaClaim(const ArenaClaim&) = delete;
  ArenaClaim& operator=(const ArenaClaim&) = delete;

  bool claimed() const { return claimed_; }

 private:
  std::atomic<bool>& busy_;
  bool claimed_ = false;
};

// The numerics-guard insertion point of the replay path: mirrors the
// per-op PILOTE_CHECK_NUMERICS of the eager kernels, over the arena slice
// a step just wrote. Gated on the same runtime/compile-time switch.
PILOTE_HOT_PATH void GuardStepNumerics(const char* step_name, const float* p,
                                       int64_t count) {
  if (!numerics::Enabled()) return;
  for (int64_t i = 0; i < count; ++i) {
    PILOTE_CHECK(std::isfinite(p[i]))
        << "non-finite value in compiled-plan step " << step_name
        << " at flat index " << i;
  }
}

// One elementwise micro pass over [n, cols], reading src and writing dst
// (src == dst for the in-place passes after the first). Each pass stores
// every element, reproducing the rounding sequence of the eager
// RowBroadcast / ElementwiseUnary / StandardScaler::Transform kernels.
PILOTE_HOT_PATH void ApplyMicroPass(const MicroStep& micro, const float* pa,
                                    const float* pb, const float* src,
                                    float* dst, int64_t n, int64_t cols) {
  for (int64_t r = 0; r < n; ++r) {
    const float* s = src + r * cols;
    float* d = dst + r * cols;
    switch (micro.op) {
      case MicroOp::kStandardize:
        for (int64_t c = 0; c < cols; ++c) d[c] = (s[c] - pa[c]) / pb[c];
        break;
      case MicroOp::kAddRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] + pa[c];
        break;
      case MicroOp::kSubRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] - pa[c];
        break;
      case MicroOp::kMulRow:
        for (int64_t c = 0; c < cols; ++c) d[c] = s[c] * pa[c];
        break;
      case MicroOp::kRelu:
        for (int64_t c = 0; c < cols; ++c)
          d[c] = s[c] > 0.0f ? s[c] : 0.0f;
        break;
    }
  }
}

}  // namespace

Executor::Executor(std::shared_ptr<const InferencePlan> plan)
    : plan_(std::move(plan)) {
  PILOTE_CHECK(plan_ != nullptr);
}

Span<float> Executor::SliceAt(int32_t value, int64_t n) {
  PILOTE_DCHECK(value > 0);
  // Per-row offsets scale by the batch size; disjoint per-row slices stay
  // disjoint after scaling (see exec/memory_planner.h).
  const ArenaSlice& s = plan_->slice(value);
  return Span<float>(arena_.data() + s.offset * n,
                     static_cast<size_t>(s.size * n));
}

ConstSpan<float> Executor::ReadAt(const Tensor& in, int32_t value,
                                  int64_t n) {
  if (value == 0) return in.span();
  return SliceAt(value, n);
}

void Executor::ReplaySteps(const Tensor& in, int64_t n, int32_t last_step,
                           std::vector<int>* labels) {
  if (n > rows_high_water_) {
    rows_high_water_ = n;
    // hotpath-ok: arena growth past the batch-size high-water mark only
    arena_.resize(static_cast<size_t>(plan_->arena_per_row() * n));
  }
  const std::vector<Step>& steps = plan_->steps();
  for (int32_t s = 0; s <= last_step; ++s) {
    const Step& step = steps[static_cast<size_t>(s)];
    switch (step.kind) {
      case StepKind::kGemmTransB: {
        // The constant is W^T [k, cols], transposed once at capture, so
        // the product runs the contiguous SAXPY kernel.
        const Tensor& weight_t = plan_->constant(step.constant);
        GemmSerial(ReadAt(in, step.in, n).data(), weight_t.data(),
                   SliceAt(step.out, n).data(), n, step.k, step.cols);
        GuardStepNumerics("gemm", SliceAt(step.out, n).data(),
                          n * step.cols);
        break;
      }
      case StepKind::kElementwise: {
        const float* src = ReadAt(in, step.in, n).data();
        float* dst = SliceAt(step.out, n).data();
        for (const MicroStep& micro : step.micro) {
          const float* pa =
              micro.a >= 0 ? plan_->constant(micro.a).data() : nullptr;
          const float* pb =
              micro.b >= 0 ? plan_->constant(micro.b).data() : nullptr;
          ApplyMicroPass(micro, pa, pb, src, dst, n, step.cols);
          src = dst;  // later passes run in place on the output slice
        }
        GuardStepNumerics("elementwise", dst, n * step.cols);
        break;
      }
      case StepKind::kRowSquaredNorm: {
        RowSquaredNormInto(ReadAt(in, step.in, n).data(), n, step.k,
                           SliceAt(step.out, n).data());
        GuardStepNumerics("row_squared_norm",
                          SliceAt(step.out, n).data(), n);
        break;
      }
      case StepKind::kNcmCombine: {
        const Tensor& proto_norms = plan_->constant(step.constant);
        SquaredDistanceCombineInto(ReadAt(in, step.in, n).data(),
                                   ReadAt(in, step.in2, n).data(),
                                   proto_norms.data(),
                                   SliceAt(step.out, n).data(), n,
                                   step.cols);
        GuardStepNumerics("ncm_combine", SliceAt(step.out, n).data(),
                          n * step.cols);
        break;
      }
      case StepKind::kArgMinLabel: {
        PILOTE_DCHECK(labels != nullptr);
        const float* distances = ReadAt(in, step.in, n).data();
        const std::vector<int>& table = plan_->labels();
        labels->resize(static_cast<size_t>(n));  // hotpath-ok: the output
        for (int64_t r = 0; r < n; ++r) {
          const float* pm = distances + r * step.cols;
          // Same first-minimum rule as the eager ArgMinPerRow.
          const int64_t nearest = std::min_element(pm, pm + step.cols) - pm;
          (*labels)[static_cast<size_t>(r)] =
              table[static_cast<size_t>(nearest)];
        }
        break;
      }
    }
  }
}

bool Executor::TryRun(const Tensor& in, Tensor* out) {
  PILOTE_CHECK(out != nullptr);
  PILOTE_CHECK_EQ(in.rank(), 2);
  PILOTE_CHECK_EQ(in.cols(), plan_->input_cols());
  const int32_t output = plan_->output_value();
  PILOTE_CHECK(output > 0) << "plan has no marked tensor output";
  ArenaClaim claim(busy_);
  if (!claim.claimed()) return false;
  const int64_t n = in.rows();
  // Stop once the marked output is complete: the classify tail (if any)
  // never feeds back into the pinned output value.
  ReplaySteps(in, n, plan_->output_ready_step(), /*labels=*/nullptr);
  const int64_t out_cols = plan_->value_cols(output);
  if (out->rank() != 2 || out->cols() != out_cols) {
    *out = Tensor(Shape::Matrix(n, out_cols));  // hotpath-ok: first call
  } else {
    out->ResizeRows(n);
  }
  std::memcpy(out->data(), SliceAt(output, n).data(),
              static_cast<size_t>(n * out_cols) * sizeof(float));
  return true;
}

bool Executor::TryRunClassify(const Tensor& in, std::vector<int>* labels) {
  PILOTE_CHECK(labels != nullptr);
  PILOTE_CHECK_EQ(in.rank(), 2);
  PILOTE_CHECK_EQ(in.cols(), plan_->input_cols());
  PILOTE_CHECK(plan_->has_classify_tail())
      << "plan was captured without a classify tail";
  ArenaClaim claim(busy_);
  if (!claim.claimed()) return false;
  ReplaySteps(in, in.rows(),
              static_cast<int32_t>(plan_->steps().size()) - 1, labels);
  return true;
}

void Executor::Run(const Tensor& in, Tensor* out) {
  PILOTE_CHECK(TryRun(in, out)) << "executor arena claimed concurrently";
}

void Executor::RunClassify(const Tensor& in, std::vector<int>* labels) {
  PILOTE_CHECK(TryRunClassify(in, labels))
      << "executor arena claimed concurrently";
}

}  // namespace exec
}  // namespace pilote
