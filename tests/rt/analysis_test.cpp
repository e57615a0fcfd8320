#include "rt/analysis.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "dnn/builders.hpp"

namespace sgprs::rt {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest()
      : profiler_(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                  dnn::CostModel::calibrated()),
        capacity_(pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                                gpu::SharingParams{}, 68, 2, 51, 4)) {}

  std::vector<Task> make_tasks(int n, double fps = 30.0) {
    if (!net_) net_ = std::make_shared<const dnn::Network>(dnn::resnet18());
    std::vector<Task> tasks;
    for (int i = 0; i < n; ++i) {
      TaskConfig cfg;
      cfg.fps = fps;
      tasks.push_back(build_task(i, net_, cfg, profiler_, {51}));
    }
    return tasks;
  }

  dnn::Profiler profiler_;
  PoolCapacityModel capacity_;
  std::shared_ptr<const dnn::Network> net_;
};

TEST_F(AnalysisTest, CapacityModelSane) {
  EXPECT_EQ(capacity_.total_slots, 8);
  EXPECT_GT(capacity_.work_rate, 0.0);
  EXPECT_NEAR(capacity_.per_slot_rate * 8, capacity_.work_rate, 1e-9);
  // 8 concurrent conv kernels cannot beat 68 perfectly-linear SMs.
  EXPECT_LT(capacity_.work_rate, 68.0);
  // But they must beat one serial full-GPU kernel (that is the point of
  // temporal partitioning).
  EXPECT_GT(capacity_.work_rate,
            gpu::SpeedupModel::rtx2080ti().speedup(gpu::OpClass::kConv, 68));
}

TEST_F(AnalysisTest, MoreContextsMoreCapacityUntilContention) {
  const auto two = pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                                 gpu::SharingParams{}, 68, 2, 34, 4);
  const auto three = pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                                   gpu::SharingParams{}, 68, 3, 23, 4);
  // 12 smaller slots vs 8 bigger ones: concavity favours the finer split,
  // interference pushes back; both must stay positive and same order.
  EXPECT_GT(two.work_rate, 0.0);
  EXPECT_GT(three.work_rate, 0.0);
  EXPECT_NEAR(three.work_rate / two.work_rate, 1.0, 0.35);
}

TEST_F(AnalysisTest, ReferenceSizeIsTheSmallestProfiledNotTheFirst) {
  // Admission reads a task's WCET at its smallest profiled SM size. A pool
  // whose larger contexts come first must not move that reference.
  const auto net = std::make_shared<const dnn::Network>(dnn::resnet18());
  const auto with_sizes = [&](std::vector<int> sizes) {
    return build_task(0, net, TaskConfig{}, profiler_, sizes);
  };
  const Task larger_first = with_sizes({51, 34});
  const Task smaller_first = with_sizes({34, 51});
  const Task only_small = with_sizes({34});
  const Task only_large = with_sizes({51});
  EXPECT_EQ(task_work_rate(larger_first), task_work_rate(only_small));
  EXPECT_EQ(task_work_rate(smaller_first), task_work_rate(only_small));
  EXPECT_NE(task_work_rate(larger_first), task_work_rate(only_large));
  EXPECT_EQ(utilization_test({larger_first}, capacity_).offered_work_rate,
            utilization_test({only_small}, capacity_).offered_work_rate);
}

TEST_F(AnalysisTest, UtilizationScalesLinearlyWithTasks) {
  const auto u8 = utilization_test(make_tasks(8), capacity_);
  const auto u16 = utilization_test(make_tasks(16), capacity_);
  EXPECT_NEAR(u16.utilization, 2.0 * u8.utilization, 1e-9);
}

TEST_F(AnalysisTest, UtilizationTestAcceptsLightLoad) {
  const auto rep = utilization_test(make_tasks(4), capacity_);
  EXPECT_TRUE(rep.schedulable_by_utilization);
  EXPECT_LT(rep.utilization, 0.5);
}

TEST_F(AnalysisTest, UtilizationTestRejectsOverload) {
  const auto rep = utilization_test(make_tasks(40), capacity_);
  EXPECT_FALSE(rep.schedulable_by_utilization);
  EXPECT_GT(rep.utilization, 1.0);
}

TEST_F(AnalysisTest, AnalyticalPivotBracketsEmpiricalPivot) {
  // The empirical pivot (Fig. 3, os 1.5) sits near 24-25 tasks; the
  // utilization bound must not be wildly off — within a handful of tasks.
  int analytic_pivot = 0;
  for (int n = 1; n <= 40; ++n) {
    if (utilization_test(make_tasks(n), capacity_).utilization <= 1.0) {
      analytic_pivot = n;
    } else {
      break;
    }
  }
  EXPECT_GE(analytic_pivot, 20);
  EXPECT_LE(analytic_pivot, 30);
}

TEST_F(AnalysisTest, ResponseTimeGrowsWithLoad) {
  const auto light = response_time_estimate(make_tasks(4), capacity_, 51);
  const auto heavy = response_time_estimate(make_tasks(20), capacity_, 51);
  ASSERT_FALSE(light.response_sec.empty());
  EXPECT_LT(light.response_sec[0], heavy.response_sec[0]);
  EXPECT_TRUE(light.all_deadlines_met);
}

TEST_F(AnalysisTest, ResponseTimeFailsPastSaturation) {
  const auto rep = response_time_estimate(make_tasks(40), capacity_, 51);
  EXPECT_FALSE(rep.all_deadlines_met);
}

TEST_F(AnalysisTest, AdmissionControllerStopsAtCapacity) {
  AdmissionController ac(capacity_, 51, 0.95);
  const auto tasks = make_tasks(40);
  int admitted = 0;
  for (const auto& t : tasks) {
    if (ac.try_admit(t)) ++admitted;
  }
  EXPECT_GT(admitted, 10) << "plenty of room for the first tasks";
  EXPECT_LT(admitted, 40) << "must reject before overload";
  EXPECT_EQ(static_cast<int>(ac.admitted().size()), admitted);
  EXPECT_LE(ac.current_utilization(), 0.95 + 1e-9);
}

TEST_F(AnalysisTest, AdmissionRejectionLeavesStateUnchanged) {
  AdmissionController ac(capacity_, 51, 0.95);
  for (const auto& t : make_tasks(40)) ac.try_admit(t);
  const auto before = ac.current_utilization();
  const auto more = make_tasks(1, 60.0);  // heavy task: must be rejected
  EXPECT_FALSE(ac.try_admit(more[0]));
  EXPECT_DOUBLE_EQ(ac.current_utilization(), before);
}

TEST_F(AnalysisTest, CachedUtilizationMatchesAFreshTest) {
  // current_utilization caches its value between changes of the admitted
  // set: after every step of a random admit/remove sequence it must equal
  // a fresh utilization_test of that set, bit for bit.
  if (!net_) net_ = std::make_shared<const dnn::Network>(dnn::resnet18());
  std::vector<Task> pool;
  common::Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    TaskConfig cfg;
    cfg.fps = rng.uniform(5.0, 60.0);
    pool.push_back(build_task(i, net_, cfg, profiler_, {51}));
  }
  AdmissionController ac(capacity_, 51, 0.95);
  int admitted = 0;
  int rejected = 0;
  int removed = 0;
  for (int step = 0; step < 400; ++step) {
    const Task& t = pool[rng.next_u64() % pool.size()];
    const double roll = rng.next_double();
    if (roll < 0.45) {
      (ac.try_admit(t) ? admitted : rejected) += 1;
    } else if (roll < 0.55) {
      ac.force_admit(t);
    } else {
      removed += ac.remove(t.id) ? 1 : 0;
    }
    const double fresh =
        ac.admitted().empty()
            ? 0.0
            : utilization_test(ac.admitted(), capacity_, 1.0).utilization;
    ASSERT_EQ(ac.current_utilization(), fresh) << "step " << step;
    // A second read hits the cache.
    ASSERT_EQ(ac.current_utilization(), fresh) << "step " << step;
  }
  EXPECT_GT(admitted, 10);
  EXPECT_GT(rejected, 10);
  EXPECT_GT(removed, 10);
}

TEST_F(AnalysisTest, InvalidInputsThrow) {
  EXPECT_THROW(pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                             gpu::SharingParams{}, 68, 0, 34, 4),
               common::CheckError);
  EXPECT_THROW(utilization_test(make_tasks(1), PoolCapacityModel{}),
               common::CheckError);
}

}  // namespace
}  // namespace sgprs::rt
