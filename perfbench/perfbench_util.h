#ifndef PILOTE_PERFBENCH_PERFBENCH_UTIL_H_
#define PILOTE_PERFBENCH_PERFBENCH_UTIL_H_

// Pure helpers of the PILOTE benchmark driver (perfbench.cc), kept apart
// so perfbench_test.cc can pin them without running a workload.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/vote_ring.h"
#include "exec/plan.h"

namespace pilote {
namespace perfbench {

// A nearest-rank percentile together with the number of samples it rests
// on and the number strictly beyond its rank, so a reader can tell whether
// a tail percentile has enough samples behind it.
struct Percentile {
  double value = 0.0;
  int64_t count = 0;
  int64_t beyond = 0;
};

// Nearest-rank percentile of `values` for q in (0, 1]: the smallest sample
// with at least q * n samples at or below it. Empty input gives count 0.
inline Percentile ComputePercentile(std::vector<double> values, double q) {
  PILOTE_CHECK(q > 0.0 && q <= 1.0) << "q " << q;
  Percentile p;
  p.count = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(p.count)));
  rank = std::clamp<int64_t>(rank, 1, p.count);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  p.value = values[static_cast<size_t>(rank - 1)];
  p.beyond = p.count - rank;
  return p;
}

// Stratified phase offsets in [0, window_s): device slot i gets a jittered
// point inside the i-th of `devices` equal strata, and the slots are dealt
// to devices in seeded random order. Every stratum holds exactly one
// device, so window completions spread evenly across the window period
// instead of clumping the way independent uniform draws do.
inline std::vector<double> DrawPhases(int devices, double window_s, Rng& rng) {
  PILOTE_CHECK_GT(devices, 0);
  std::vector<double> phases(static_cast<size_t>(devices));
  const double stratum = window_s / devices;
  for (int i = 0; i < devices; ++i) {
    phases[static_cast<size_t>(i)] = (i + rng.UniformDouble()) * stratum;
  }
  for (int i = devices - 1; i > 0; --i) {
    const int j = rng.UniformInt(0, i);
    std::swap(phases[static_cast<size_t>(i)], phases[static_cast<size_t>(j)]);
  }
  return phases;
}

// One sample of the merged open-loop schedule.
struct SampleEvent {
  int device = 0;
  int64_t sample = 0;  // index of the sample within the device's stream
  double due_s = 0.0;  // seconds after the schedule's time origin
};

// Merged due-time schedule of many devices sampling at one rate: device d
// sends its j-th sample at phases[d] + j / rate_hz. Events come out in
// nondecreasing due order without a heap: a shared rate makes the
// schedule periodic, so each period ("round") visits the devices that have
// started, sorted by their offset inside the period.
class DueSchedule {
 public:
  DueSchedule(const std::vector<double>& phases_s, double rate_hz)
      : period_s_(1.0 / rate_hz) {
    PILOTE_CHECK_GT(rate_hz, 0.0);
    const size_t n = phases_s.size();
    start_round_.resize(n);
    offset_s_.resize(n);
    for (size_t d = 0; d < n; ++d) {
      PILOTE_CHECK(phases_s[d] >= 0.0) << "phase " << phases_s[d];
      start_round_[d] = static_cast<int64_t>(std::floor(phases_s[d] / period_s_));
      offset_s_[d] = phases_s[d] - static_cast<double>(start_round_[d]) * period_s_;
    }
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    std::stable_sort(order_.begin(), order_.end(), [this](int a, int b) {
      return offset_s_[static_cast<size_t>(a)] < offset_s_[static_cast<size_t>(b)];
    });
  }

  // The next event; the schedule never ends (callers stop on time).
  SampleEvent Next() {
    PILOTE_CHECK(!order_.empty());
    while (true) {
      if (pos_ == order_.size()) {
        pos_ = 0;
        ++round_;
      }
      const size_t d = static_cast<size_t>(order_[pos_++]);
      if (round_ < start_round_[d]) continue;
      SampleEvent event;
      event.device = static_cast<int>(d);
      event.sample = round_ - start_round_[d];
      event.due_s = static_cast<double>(round_) * period_s_ + offset_s_[d];
      return event;
    }
  }

 private:
  double period_s_;
  std::vector<int64_t> start_round_;
  std::vector<double> offset_s_;
  std::vector<int> order_;  // devices by offset inside the period
  size_t pos_ = 0;
  int64_t round_ = 0;
};

// The offline oracle for a device's served labels: the smoothed label the
// serve layer must return for each raw label, in order, replayed through
// the same fixed-capacity majority vote (core::VoteRing) the session uses.
inline std::vector<int> ReplayVotes(const std::vector<int>& raw_labels,
                                    int vote_window) {
  core::VoteRing ring(vote_window);
  std::vector<int> smoothed;
  smoothed.reserve(raw_labels.size());
  for (int label : raw_labels) {
    ring.Push(label);
    smoothed.push_back(ring.MajorityLabel());
  }
  return smoothed;
}

// Floating-point operations one plan step performs on `rows` rows, counted
// from the step's shapes: 2*k per GEMM output, one per elementwise micro
// op per element (two for standardize), two per input element of a row
// norm and three per NCM distance combine. The terminal argmin only
// compares and counts zero.
inline int64_t StepFlops(const exec::InferencePlan& plan, const exec::Step& step,
                         int64_t rows) {
  switch (step.kind) {
    case exec::StepKind::kGemmTransB:
      return 2 * rows * step.k * step.cols;
    case exec::StepKind::kElementwise: {
      int64_t per_element = 0;
      for (const exec::MicroStep& micro : step.micro) {
        per_element += micro.op == exec::MicroOp::kStandardize ? 2 : 1;
      }
      return per_element * rows * step.cols;
    }
    case exec::StepKind::kRowSquaredNorm: {
      const int64_t in_cols =
          step.in == 0 ? plan.input_cols() : plan.value_cols(step.in);
      return 2 * rows * in_cols;
    }
    case exec::StepKind::kNcmCombine:
      return 3 * rows * step.cols;
    case exec::StepKind::kArgMinLabel:
      return 0;
  }
  return 0;
}

inline int64_t PlanFlops(const exec::InferencePlan& plan, int64_t rows) {
  int64_t flops = 0;
  for (const exec::Step& step : plan.steps()) flops += StepFlops(plan, step, rows);
  return flops;
}

// Bytes of every constant the plan's steps reference (weights, scaler
// statistics, prototype norms), each counted once.
inline int64_t PlanConstantBytes(const exec::InferencePlan& plan) {
  std::vector<int32_t> ids;
  for (const exec::Step& step : plan.steps()) {
    ids.push_back(step.constant);
    for (const exec::MicroStep& micro : step.micro) {
      ids.push_back(micro.a);
      ids.push_back(micro.b);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  int64_t bytes = 0;
  for (int32_t id : ids) {
    if (id >= 0) bytes += plan.constant(id).numel() * static_cast<int64_t>(sizeof(float));
  }
  return bytes;
}

}  // namespace perfbench
}  // namespace pilote

#endif  // PILOTE_PERFBENCH_PERFBENCH_UTIL_H_
