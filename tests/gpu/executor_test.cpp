#include "gpu/executor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace sgprs::gpu {
namespace {

using common::SimTime;

SharingParams clean_params() {
  SharingParams p;
  p.interference_gamma = 0.0;
  p.oversub_thrash_kappa = 0.0;
  p.contention_exponent = 1.0;
  return p;
}

KernelDesc kernel(OpClass op, double work_sec, double overhead_sec = 0.0) {
  KernelDesc k;
  k.op = op;
  k.work_sm_seconds = work_sec;
  k.overhead_seconds = overhead_sec;
  return k;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : exec_(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(),
              clean_params()) {}
  sim::Engine engine_;
  Executor exec_;
};

TEST_F(ExecutorTest, SingleKernelDurationMatchesSpeedupModel) {
  const auto ctx = exec_.create_context(34);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime done = SimTime::zero();
  // 1 second of 1-SM conv work on 34 SMs.
  exec_.enqueue(s, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { done = t; });
  engine_.run();
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 34.0);
  EXPECT_NEAR(done.to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, OverheadDoesNotScaleWithSms) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime done = SimTime::zero();
  exec_.enqueue(s, kernel(OpClass::kConv, 0.0, 0.001),
                [&](SimTime t) { done = t; });
  engine_.run();
  EXPECT_NEAR(done.to_ms(), 1.0, 1e-6);
}

TEST_F(ExecutorTest, StreamSerializesKernels) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  std::vector<SimTime> ends;
  for (int i = 0; i < 3; ++i) {
    exec_.enqueue(s, kernel(OpClass::kConv, 32.0),  // 1 s at 68 SMs (32x)
                  [&](SimTime t) { ends.push_back(t); });
  }
  engine_.run();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_NEAR(ends[0].to_sec(), 1.0, 1e-6);
  EXPECT_NEAR(ends[1].to_sec(), 2.0, 1e-6);
  EXPECT_NEAR(ends[2].to_sec(), 3.0, 1e-6);
}

TEST_F(ExecutorTest, TwoStreamsSameContextShareSms) {
  const auto ctx = exec_.create_context(68);
  const auto s1 = exec_.create_stream(ctx, StreamPriority::kLow);
  const auto s2 = exec_.create_stream(ctx, StreamPriority::kLow);
  std::vector<SimTime> ends(2);
  // Two identical kernels, equal weight -> each gets 34 SMs.
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { ends[0] = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { ends[1] = t; });
  engine_.run();
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 34.0);
  EXPECT_NEAR(ends[0].to_sec(), expected, 1e-6);
  EXPECT_NEAR(ends[1].to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, HighPriorityStreamFinishesFirst) {
  SharingParams p = clean_params();
  p.high_priority_weight = 2.0;
  Executor exec(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(), p);
  const auto ctx = exec.create_context(60);
  const auto hi = exec.create_stream(ctx, StreamPriority::kHigh);
  const auto lo = exec.create_stream(ctx, StreamPriority::kLow);
  SimTime hi_done, lo_done;
  exec.enqueue(hi, kernel(OpClass::kConv, 1.0),
               [&](SimTime t) { hi_done = t; });
  exec.enqueue(lo, kernel(OpClass::kConv, 1.0),
               [&](SimTime t) { lo_done = t; });
  engine_.run();
  EXPECT_LT(hi_done, lo_done);
}

TEST_F(ExecutorTest, RatesRecomputeWhenCompetitorFinishes) {
  // Kernel B should speed up once kernel A completes and frees its share.
  const auto ctx = exec_.create_context(68);
  const auto s1 = exec_.create_stream(ctx, StreamPriority::kLow);
  const auto s2 = exec_.create_stream(ctx, StreamPriority::kLow);
  SimTime a_done, b_done;
  const auto& model = exec_.speedup_model();
  // A: short. B: long. Phase 1: both at 34 SMs. Phase 2: B alone at 68.
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { a_done = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 10.0),
                [&](SimTime t) { b_done = t; });
  engine_.run();
  const double r34 = model.speedup(OpClass::kConv, 34.0);
  const double r68 = model.speedup(OpClass::kConv, 68.0);
  const double t_a = 1.0 / r34;
  // B does t_a * r34 work in phase 1, the rest at r68.
  const double t_b = t_a + (10.0 - t_a * r34) / r68;
  EXPECT_NEAR(a_done.to_sec(), t_a, 1e-6);
  EXPECT_NEAR(b_done.to_sec(), t_b, 1e-5);
}

TEST_F(ExecutorTest, OversubscribedContextsSlowDown) {
  const auto c1 = exec_.create_context(68);
  const auto c2 = exec_.create_context(68);
  const auto s1 = exec_.create_stream(c1, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(c2, StreamPriority::kHigh);
  SimTime done1;
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0),
                [&](SimTime t) { done1 = t; });
  exec_.enqueue(s2, kernel(OpClass::kConv, 1.0), {});
  engine_.run();
  // Both run at 68 SMs but demand is 2x -> rates halve -> 2x duration.
  const double expected =
      2.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, 68.0);
  EXPECT_NEAR(done1.to_sec(), expected, 1e-6);
}

TEST_F(ExecutorTest, BatchCallbackFiresOnceAtEnd) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  int calls = 0;
  SimTime done;
  std::vector<KernelDesc> batch = {kernel(OpClass::kConv, 32.0),
                                   kernel(OpClass::kReLU, 5.0),
                                   kernel(OpClass::kConv, 32.0)};
  exec_.enqueue_batch(s, std::move(batch), [&](SimTime t) {
    ++calls;
    done = t;
  });
  engine_.run();
  EXPECT_EQ(calls, 1);
  // conv 32 work at 32x = 1 s each; relu 5 work at 5x = 1 s.
  EXPECT_NEAR(done.to_sec(), 3.0, 1e-6);
}

TEST_F(ExecutorTest, EmptyBatchThrows) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  EXPECT_THROW(exec_.enqueue_batch(s, {}, {}), common::CheckError);
}

TEST_F(ExecutorTest, ProgramsRejectEmptyAndNegativeKernels) {
  EXPECT_THROW(KernelProgram({}), common::CheckError);
  EXPECT_THROW(KernelProgram({kernel(OpClass::kConv, -1.0)}),
               common::CheckError);
  EXPECT_THROW(KernelProgram({kernel(OpClass::kConv, 1.0, -1e-6)}),
               common::CheckError);
  const auto s = exec_.create_stream(exec_.create_context(68),
                                     StreamPriority::kHigh);
  EXPECT_THROW(exec_.enqueue(s, kernel(OpClass::kConv, -1.0), {}),
               common::CheckError);
  EXPECT_FALSE(exec_.stream_busy(s));
}

TEST_F(ExecutorTest, CompletionCallbackCanEnqueue) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  SimTime second_done;
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), [&](SimTime) {
    exec_.enqueue(s, kernel(OpClass::kConv, 32.0),
                  [&](SimTime t) { second_done = t; });
  });
  engine_.run();
  EXPECT_NEAR(second_done.to_sec(), 2.0, 1e-6);
}

TEST_F(ExecutorTest, IntrospectionCounts) {
  const auto c1 = exec_.create_context(34);
  const auto s1 = exec_.create_stream(c1, StreamPriority::kHigh);
  const auto s2 = exec_.create_stream(c1, StreamPriority::kLow);
  EXPECT_EQ(exec_.context_count(), 1);
  EXPECT_EQ(exec_.stream_count(), 2);
  EXPECT_EQ(exec_.context_sm_limit(c1), 34);
  EXPECT_EQ(exec_.stream_context(s2), c1);
  EXPECT_EQ(exec_.stream_priority(s1), StreamPriority::kHigh);
  EXPECT_FALSE(exec_.stream_busy(s1));

  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0), {});
  exec_.enqueue(s1, kernel(OpClass::kConv, 1.0), {});
  EXPECT_TRUE(exec_.stream_busy(s1));
  EXPECT_EQ(exec_.stream_queue_length(s1), 1u);  // one running, one queued
  EXPECT_EQ(exec_.running_kernel_count(), 1);
  EXPECT_EQ(exec_.context_running_count(c1), 1);
  engine_.run();
  EXPECT_EQ(exec_.running_kernel_count(), 0);
  EXPECT_FALSE(exec_.stream_busy(s1));
}

TEST_F(ExecutorTest, WorkConservation) {
  // Total work completed must equal total work submitted.
  const auto c1 = exec_.create_context(40);
  const auto c2 = exec_.create_context(40);
  double submitted = 0.0;
  for (int i = 0; i < 4; ++i) {
    const auto s = exec_.create_stream(i % 2 ? c1 : c2,
                                       i < 2 ? StreamPriority::kHigh
                                             : StreamPriority::kLow);
    for (int j = 0; j < 5; ++j) {
      const double w = 0.1 * (1 + i) + 0.01 * j;
      submitted += w;
      exec_.enqueue(s, kernel(OpClass::kConv, w), {});
    }
  }
  engine_.run();
  EXPECT_NEAR(exec_.total_work_done(), submitted, 1e-6);
}

TEST_F(ExecutorTest, ZeroWorkKernelCompletesImmediately) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  bool done = false;
  exec_.enqueue(s, kernel(OpClass::kConv, 0.0), [&](SimTime) { done = true; });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine_.now(), SimTime::zero());
}

TEST_F(ExecutorTest, RunningRemainingEstimates) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});  // 1 s at 68 SMs
  EXPECT_NEAR(exec_.running_remaining(s).to_sec(), 1.0, 1e-6);
  engine_.run_until(SimTime::from_ms(250));
  EXPECT_NEAR(exec_.running_remaining(s).to_sec(), 0.75, 1e-6);
  engine_.run();
  EXPECT_TRUE(exec_.running_remaining(s).is_max());
}

TEST_F(ExecutorTest, ContextSmLimitValidation) {
  EXPECT_THROW(exec_.create_context(0), common::CheckError);
  EXPECT_THROW(exec_.create_context(69), common::CheckError);
  EXPECT_NO_THROW(exec_.create_context(68));
}

TEST_F(ExecutorTest, TraceSinkSeesStartAndEnd) {
  struct Recorder : TraceSink {
    std::vector<std::pair<char, SimTime>> events;
    void on_kernel_start(SimTime t, int, int, const KernelDesc&) override {
      events.emplace_back('s', t);
    }
    void on_kernel_end(SimTime t, int, int, const KernelDesc&) override {
      events.emplace_back('e', t);
    }
  } rec;
  exec_.set_trace_sink(&rec);
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});
  exec_.enqueue(s, kernel(OpClass::kConv, 32.0), {});
  engine_.run();
  ASSERT_EQ(rec.events.size(), 4u);
  EXPECT_EQ(rec.events[0].first, 's');
  EXPECT_EQ(rec.events[1].first, 'e');
  EXPECT_EQ(rec.events[2].first, 's');
  EXPECT_EQ(rec.events[3].first, 'e');
  EXPECT_EQ(rec.events[1].second, rec.events[2].second)
      << "next kernel starts when the previous ends";
}

// Callbacks that hold a shared sentinel: once the executor has fired or
// dropped every one, the test holds the only reference. Each stream gets a
// shared program, an owned batch and single kernels, of alternating op
// classes, so its running record holds callbacks and owned programs in
// turn.
class CallbackCleanupTest : public ExecutorTest {
 protected:
  void submit(StreamId s, double work) {
    programs_.push_back(std::make_unique<KernelProgram>(std::vector{
        kernel(OpClass::kConv, work), kernel(OpClass::kReLU, work / 4),
        kernel(OpClass::kLinear, work)}));
    exec_.enqueue_program(s, *programs_.back(), 7, callback());
    exec_.enqueue_batch(s,
                        {kernel(OpClass::kLinear, work),
                         kernel(OpClass::kConv, work)},
                        callback());
    for (int i = 0; i < 3; ++i) {
      exec_.enqueue(s, kernel(i % 2 ? OpClass::kConv : OpClass::kLinear, work),
                    callback());
    }
  }
  CompletionFn callback() {
    return [token = token_, this](SimTime) { ++fired_; };
  }
  // Steps events until `n` callbacks have fired.
  void step_until_fired(int n) {
    while (fired_ < n) ASSERT_TRUE(engine_.step());
  }

  std::vector<std::unique_ptr<KernelProgram>> programs_;
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
  int fired_ = 0;
};

TEST_F(CallbackCleanupTest, PurgeMidKernelReleasesContendedCallbacks) {
  const auto ctx = exec_.create_context(34);
  const auto fast = exec_.create_stream(ctx, StreamPriority::kHigh);
  const auto slow = exec_.create_stream(ctx, StreamPriority::kLow);
  submit(fast, 0.05);
  submit(slow, 50.0);
  // The fast stream's program and batch are done: its record was loaded
  // in place with a single kernel and that kernel's callback.
  step_until_fired(2);
  engine_.run_until(engine_.now() + SimTime::from_ns(1000));
  ASSERT_EQ(exec_.running_kernel_count(), 2);
  EXPECT_GT(token_.use_count(), 1);
  const int fired = fired_;
  exec_.purge_all();
  EXPECT_EQ(token_.use_count(), 1);
  engine_.run();
  EXPECT_EQ(fired_, fired);
  EXPECT_FALSE(exec_.stream_busy(fast));
  EXPECT_FALSE(exec_.stream_busy(slow));
}

TEST_F(CallbackCleanupTest, PurgeMidKernelReleasesSoloChainCallbacks) {
  const auto ctx = exec_.create_context(68);
  const auto s = exec_.create_stream(ctx, StreamPriority::kHigh);
  submit(s, 0.05);
  step_until_fired(2);
  engine_.run_until(engine_.now() + SimTime::from_ns(1000));
  ASSERT_EQ(exec_.running_kernel_count(), 1);
  EXPECT_GT(token_.use_count(), 1);
  exec_.purge_all();
  EXPECT_EQ(token_.use_count(), 1);
  engine_.run();
  EXPECT_EQ(fired_, 2);
}

TEST_F(CallbackCleanupTest, RunToCompletionReleasesCallbacks) {
  const auto ctx = exec_.create_context(34);
  const auto a = exec_.create_stream(ctx, StreamPriority::kHigh);
  const auto b = exec_.create_stream(ctx, StreamPriority::kLow);
  const auto c = exec_.create_stream(exec_.create_context(34),
                                     StreamPriority::kLow);
  submit(a, 0.05);
  submit(b, 0.2);
  submit(c, 0.1);
  engine_.run();
  EXPECT_EQ(fired_, 15);
  EXPECT_EQ(exec_.running_kernel_count(), 0);
  EXPECT_EQ(token_.use_count(), 1);
}

TEST(ExecutorLifetime, DestroyedMidKernelReleasesCallbacks) {
  sim::Engine engine;
  auto token = std::make_shared<int>(0);
  {
    Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                  clean_params());
    const auto ctx = exec.create_context(34);
    for (int i = 0; i < 2; ++i) {
      const auto s = exec.create_stream(ctx, StreamPriority::kLow);
      for (int j = 0; j < 3; ++j) {
        exec.enqueue(s, kernel(OpClass::kConv, 1.0 + i),
                     [token](SimTime) {});
      }
    }
    engine.run_until(SimTime::from_ms(1));
    ASSERT_EQ(exec.running_kernel_count(), 2);
    EXPECT_EQ(token.use_count(), 7);
  }
  // The engine still holds the executor's completion event; it is never
  // run.
  EXPECT_EQ(token.use_count(), 1);
}

// Parameterized: N equal kernels in one context finish simultaneously and
// the makespan matches the analytic processor-sharing prediction.
class EqualSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(EqualSplitSweep, MakespanMatchesAnalytic) {
  const int n = GetParam();
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                clean_params());
  const auto ctx = exec.create_context(68);
  std::vector<SimTime> ends;
  for (int i = 0; i < n; ++i) {
    const auto s = exec.create_stream(ctx, StreamPriority::kLow);
    exec.enqueue(s, kernel(OpClass::kConv, 1.0),
                 [&](SimTime t) { ends.push_back(t); });
  }
  engine.run();
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(n));
  const double share = 68.0 / n;
  const double expected =
      1.0 / SpeedupModel::rtx2080ti().speedup(OpClass::kConv, share);
  for (const auto& e : ends) EXPECT_NEAR(e.to_sec(), expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Fanout, EqualSplitSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace sgprs::gpu
