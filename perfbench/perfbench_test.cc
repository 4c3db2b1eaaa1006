// Tests of the benchmark driver's pure helpers (perfbench_util.h).
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/streaming_classifier.h"
#include "exec/plan_builder.h"
#include "perfbench_util.h"
#include "tensor/tensor.h"

namespace pilote {
namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankWithCountBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 2000; ++i) values.push_back(static_cast<double>(i));
  const Percentile p99 = ComputePercentile(values, 0.99);
  EXPECT_EQ(p99.value, 1980.0);
  EXPECT_EQ(p99.count, 2000);
  EXPECT_EQ(p99.beyond, 20);
  const Percentile p50 = ComputePercentile(values, 0.5);
  EXPECT_EQ(p50.value, 1000.0);
  EXPECT_EQ(p50.beyond, 1000);
  const Percentile max = ComputePercentile(values, 1.0);
  EXPECT_EQ(max.value, 2000.0);
  EXPECT_EQ(max.beyond, 0);
}

TEST(PercentileTest, UnsortedAndTinyInputs) {
  EXPECT_EQ(ComputePercentile({5.0, 1.0, 3.0}, 0.5).value, 3.0);
  EXPECT_EQ(ComputePercentile({7.0}, 0.99).value, 7.0);
  EXPECT_EQ(ComputePercentile({7.0}, 0.99).beyond, 0);
  const Percentile empty = ComputePercentile({}, 0.5);
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(DueScheduleTest, NondecreasingAndPerDeviceRate) {
  Rng rng(11);
  const std::vector<double> phases = DrawPhases(50, 1.0, rng);
  DueSchedule schedule(phases, 120.0);
  std::vector<int64_t> next_sample(phases.size(), 0);
  double last_due = -1.0;
  for (int i = 0; i < 50 * 120 * 3; ++i) {
    const SampleEvent e = schedule.Next();
    EXPECT_GE(e.due_s, last_due);
    last_due = e.due_s;
    const size_t d = static_cast<size_t>(e.device);
    // Each device's samples come in order, 1/120 s apart from its phase.
    EXPECT_EQ(e.sample, next_sample[d]++);
    EXPECT_NEAR(e.due_s, phases[d] + static_cast<double>(e.sample) / 120.0, 1e-9);
  }
}

TEST(DueScheduleTest, NoDeviceSendsBeforeItsPhase) {
  DueSchedule schedule({0.5, 0.0}, 10.0);
  // Device 1 starts at 0; device 0 joins at round 5.
  for (int i = 0; i < 5; ++i) {
    const SampleEvent e = schedule.Next();
    EXPECT_EQ(e.device, 1);
    EXPECT_NEAR(e.due_s, 0.1 * i, 1e-12);
  }
  const SampleEvent joined = schedule.Next();
  EXPECT_EQ(joined.device, 0);
  EXPECT_EQ(joined.sample, 0);
  EXPECT_NEAR(joined.due_s, 0.5, 1e-12);
}

TEST(DrawPhasesTest, WindowCompletionsSpreadAcrossThePeriod) {
  constexpr int kDevices = 200;
  constexpr int kBins = 10;
  Rng rng(3);
  const std::vector<double> phases = DrawPhases(kDevices, 1.0, rng);
  std::vector<int> bins(kBins, 0);
  for (double phase : phases) {
    ASSERT_GE(phase, 0.0);
    ASSERT_LT(phase, 1.0);
    // A 120-sample window completes at phase + 119/120 s, every second.
    const double completes = std::fmod(phase + 119.0 / 120.0, 1.0);
    ++bins[static_cast<size_t>(completes * kBins)];
  }
  // Stratified: every tenth of the second holds 20 +/- 1 completions.
  for (int count : bins) {
    EXPECT_GE(count, kDevices / kBins - 1);
    EXPECT_LE(count, kDevices / kBins + 1);
  }
  Rng same(3);
  EXPECT_EQ(DrawPhases(kDevices, 1.0, same), phases);
}

TEST(ReplayVotesTest, MatchesTheStreamingVote) {
  const std::vector<int> raw = {2, 2, 1, 1, 3, 1, 0, 0, 0, 4, 2, 4};
  for (int window : {1, 3, 4}) {
    const std::vector<int> smoothed = ReplayVotes(raw, window);
    ASSERT_EQ(smoothed.size(), raw.size());
    std::deque<int> history;
    for (size_t i = 0; i < raw.size(); ++i) {
      history.push_back(raw[i]);
      if (static_cast<int>(history.size()) > window) history.pop_front();
      EXPECT_EQ(smoothed[i], core::MajorityVoteLabel(history)) << "window " << window;
    }
  }
  EXPECT_EQ(ReplayVotes({2, 2, 1, 1}, 3), (std::vector<int>{2, 2, 2, 1}));
  EXPECT_EQ(ReplayVotes(raw, 1), raw);
}

TEST(PlanFlopsTest, CountsFromStepShapes) {
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(4);
  x = builder.Standardize(x, Tensor::Zeros(Shape::Vector(4)), Tensor::Ones(Shape::Vector(4)));
  x = builder.Gemm(x, Tensor::Ones(Shape::Matrix(3, 4)));
  x = builder.BiasAdd(x, Tensor::Zeros(Shape::Vector(3)));
  x = builder.Relu(x);
  builder.MarkOutput(x);
  const Tensor prototypes = Tensor::Ones(Shape::Matrix(2, 3));
  exec::ValueRef d = builder.SquaredDistances(x, prototypes, Tensor::Full(Shape::Vector(2), 3.0f));
  builder.ArgMinLabels(d, {0, 1});
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Per row: standardize 2*4, GEMM 2*4*3, bias + relu 2*3, then the NCM
  // tail: row norm 2*3, cross-term GEMM 2*3*2, combine 3*2, argmin 0.
  const int64_t per_row = 8 + 24 + 6 + 6 + 12 + 6;
  EXPECT_EQ(PlanFlops(*plan.value(), 1), per_row);
  EXPECT_EQ(PlanFlops(*plan.value(), 16), 16 * per_row);
  int64_t summed = 0;
  for (const exec::Step& step : plan.value()->steps()) {
    summed += StepFlops(*plan.value(), step, 5);
  }
  EXPECT_EQ(summed, 5 * per_row);
}

TEST(PlanFlopsTest, ConstantBytesCountEachConstantOnce) {
  exec::PlanBuilder builder;
  exec::ValueRef x = builder.DeclareInput(4);
  x = builder.Gemm(x, Tensor::Ones(Shape::Matrix(3, 4)));
  x = builder.BiasAdd(x, Tensor::Zeros(Shape::Vector(3)));
  builder.MarkOutput(x);
  auto plan = builder.Finish(/*version=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PlanConstantBytes(*plan.value()), (12 + 3) * 4);
}

}  // namespace
}  // namespace perfbench
}  // namespace pilote
