#include "rt/task.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hpp"

namespace sgprs::rt {
namespace {

class TaskBuildTest : public ::testing::Test {
 protected:
  TaskBuildTest()
      : network_(std::make_shared<const dnn::Network>(dnn::resnet18())),
        profiler_(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                  dnn::CostModel::calibrated()) {}

  Task build(TaskConfig cfg = {}, std::vector<int> sms = {34}) {
    return build_task(7, network_, cfg, profiler_, sms);
  }

  std::shared_ptr<const dnn::Network> network_;
  dnn::Profiler profiler_;
};

TEST_F(TaskBuildTest, PeriodFromFps) {
  const auto t = build();
  EXPECT_NEAR(t.period.to_ms(), 1000.0 / 30.0, 1e-6);
  EXPECT_EQ(t.deadline, t.period) << "implicit deadline defaults to period";
  EXPECT_EQ(t.id, 7);
}

TEST_F(TaskBuildTest, ExplicitDeadlineRespected) {
  TaskConfig cfg;
  cfg.deadline = common::SimTime::from_ms(20);
  const auto t = build(cfg);
  EXPECT_EQ(t.deadline, common::SimTime::from_ms(20));
  EXPECT_NE(t.deadline, t.period);
}

TEST_F(TaskBuildTest, SixStagesByDefault) {
  const auto t = build();
  EXPECT_EQ(t.stage_count(), 6);
  EXPECT_EQ(t.wcet().stage_count(), 6);
}

TEST_F(TaskBuildTest, TwoLevelPriorities) {
  const auto t = build();
  for (int s = 0; s < t.stage_count(); ++s) {
    const auto expected = s == t.stage_count() - 1 ? StagePriority::kHigh
                                                   : StagePriority::kLow;
    EXPECT_EQ(t.stages()[s].base_priority, expected) << "stage " << s;
  }
}

TEST_F(TaskBuildTest, PriorityPolicyAblations) {
  TaskConfig cfg;
  cfg.priority_policy = PriorityPolicy::kAllLow;
  const Task all_low = build(cfg);
  for (const auto& st : all_low.stages()) {
    EXPECT_EQ(st.base_priority, StagePriority::kLow);
  }
  cfg.priority_policy = PriorityPolicy::kAllHigh;
  const Task all_high = build(cfg);
  for (const auto& st : all_high.stages()) {
    EXPECT_EQ(st.base_priority, StagePriority::kHigh);
  }
}

TEST_F(TaskBuildTest, VirtualDeadlinesAreCumulativeAndMonotone) {
  const auto t = build();
  common::SimTime prev = common::SimTime::zero();
  for (const auto& st : t.stages()) {
    EXPECT_GT(st.virtual_deadline_offset, prev);
    prev = st.virtual_deadline_offset;
  }
  EXPECT_EQ(t.stages().back().virtual_deadline_offset, t.deadline)
      << "last stage virtual deadline equals the task deadline";
}

TEST_F(TaskBuildTest, VirtualDeadlinesProportionalToWcet) {
  // Section IV-A2: each stage's slice of D_i is proportional to its WCET
  // share. Verify the increments against the profiled stage WCETs at the
  // reference SM size.
  const auto t = build();
  const double total = t.wcet().total_at(34).to_sec();
  common::SimTime prev = common::SimTime::zero();
  for (int s = 0; s < t.stage_count() - 1; ++s) {
    const double slice =
        (t.stages()[s].virtual_deadline_offset - prev).to_sec();
    const double expected =
        t.deadline.to_sec() * t.wcet().stage_at(s, 34).to_sec() / total;
    EXPECT_NEAR(slice, expected, 1e-9) << "stage " << s;
    prev = t.stages()[s].virtual_deadline_offset;
  }
}

TEST_F(TaskBuildTest, WcetProfiledAtEveryPoolSize) {
  const auto t = build({}, {23, 34, 45});
  for (int s = 0; s < t.stage_count(); ++s) {
    EXPECT_GT(t.wcet().stage_at(s, 23), t.wcet().stage_at(s, 45))
        << "more SMs means shorter WCET";
  }
}

TEST_F(TaskBuildTest, StagesTileTheNetwork) {
  const auto t = build();
  int covered = 0;
  for (const auto& st : t.stages()) {
    covered += static_cast<int>(st.nodes.size());
  }
  EXPECT_EQ(covered, network_->node_count());
}

TEST_F(TaskBuildTest, SingleStageTask) {
  TaskConfig cfg;
  cfg.num_stages = 1;
  const auto t = build(cfg);
  EXPECT_EQ(t.stage_count(), 1);
  EXPECT_EQ(t.stages()[0].base_priority, StagePriority::kHigh)
      << "the only stage is also the last stage";
  EXPECT_EQ(t.stages()[0].virtual_deadline_offset, t.deadline);
}

TEST_F(TaskBuildTest, EachStageCompilesToOneSharedProgram) {
  const auto t = build();
  const auto cost = dnn::CostModel::calibrated();
  for (const auto& st : t.stages()) {
    ASSERT_NE(st.program, nullptr);
    const auto expected = dnn::stage_kernels(*network_, cost, st.nodes);
    ASSERT_EQ(st.program->size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const auto& got = st.program->kernels()[k];
      EXPECT_EQ(got.op, expected[k].op);
      EXPECT_EQ(got.work_sm_seconds, expected[k].work_sm_seconds);
      EXPECT_EQ(got.overhead_seconds, expected[k].overhead_seconds);
      EXPECT_EQ(got.label, expected[k].label);
      EXPECT_EQ(got.tag, 0u) << "the dispatch supplies the tag";
    }
  }
  // A clone (a spec replica, a fleet admission) shares the programs; a
  // fresh build gets programs with their own ids.
  const Task clone = t;
  const Task rebuilt = build();
  for (int s = 0; s < t.stage_count(); ++s) {
    EXPECT_EQ(clone.stages()[s].program, t.stages()[s].program);
    EXPECT_NE(rebuilt.stages()[s].program->id(), t.stages()[s].program->id());
  }
}

TEST_F(TaskBuildTest, ClonesShareOneTaskClass) {
  // The offline phase runs once per build_task; a clone takes its own id,
  // name and phase but points at the prototype's stages and WCET table.
  const Task proto = build({}, {34, 45});
  ASSERT_NE(proto.task_class, nullptr);
  Task clone = proto;
  clone.id = 8;
  clone.name = "clone";
  clone.phase = common::SimTime::from_ms(3);
  EXPECT_EQ(clone.task_class, proto.task_class);
  EXPECT_EQ(&clone.stages(), &proto.stages());
  EXPECT_EQ(&clone.wcet(), &proto.wcet());
  EXPECT_NE(build().task_class, proto.task_class)
      << "a fresh build_task runs the offline phase again";
}

TEST_F(TaskBuildTest, InvalidConfigsThrow) {
  TaskConfig bad;
  bad.fps = 0.0;
  EXPECT_THROW(build(bad), common::CheckError);
  TaskConfig bad2;
  bad2.num_stages = 0;
  EXPECT_THROW(build(bad2), common::CheckError);
  EXPECT_THROW(build_task(0, nullptr, {}, profiler_, {34}),
               common::CheckError);
  EXPECT_THROW(build({}, {}), common::CheckError);
}

}  // namespace
}  // namespace sgprs::rt
