// Task model (paper Section II) and the offline phase (Section IV-A).
//
// A task is a periodic DNN inference: the network is partitioned into
// stages, each stage gets an offline base priority (two-level scheme: the
// *last* stage of every task is high priority, the rest low) and a virtual
// deadline — a slice of the task's relative deadline proportional to the
// stage's share of the whole-network WCET.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/time.hpp"
#include "dnn/network.hpp"
#include "dnn/partition.hpp"
#include "dnn/profiler.hpp"
#include "gpu/kernel.hpp"

namespace sgprs::rt {

using common::SimTime;

/// Base (offline) priority of a stage.
enum class StagePriority : int { kHigh = 0, kMedium = 1, kLow = 2 };

/// Offline priority assignment policy (paper uses kLastStageHigh; the
/// others exist for the ablation study).
enum class PriorityPolicy {
  kLastStageHigh,  // paper Section IV-A1
  kAllLow,
  kAllHigh,
};

/// How a task's job releases arrive. The paper's tasks are strictly
/// periodic; kSporadic is the scenario-spec extension: inter-arrival times
/// are drawn uniformly in [min_separation, max_separation], so the
/// worst-case rate (the one admission analysis must budget for) is
/// 1 / min_separation.
enum class ArrivalModel { kPeriodic, kSporadic };

/// Spec and trace names of the two enums above (common/enum_names.hpp).
inline constexpr common::EnumName<PriorityPolicy> kPriorityPolicyNames[] = {
    {PriorityPolicy::kLastStageHigh, "last_stage_high"},
    {PriorityPolicy::kAllLow, "all_low"},
    {PriorityPolicy::kAllHigh, "all_high"}};
inline constexpr common::EnumName<ArrivalModel> kArrivalModelNames[] = {
    {ArrivalModel::kPeriodic, "periodic"},
    {ArrivalModel::kSporadic, "sporadic"}};

struct StageInfo {
  int index = 0;
  std::vector<dnn::NodeId> nodes;
  /// The stage's kernels (dnn::CostModel::calibrated()), built once by
  /// build_task; schedulers submit it with Executor::enqueue_program.
  std::shared_ptr<const gpu::KernelProgram> program;
  StagePriority base_priority = StagePriority::kLow;
  /// Cumulative virtual-deadline offset from job release: the stage's
  /// absolute deadline is release + this (paper Section IV-B1). The last
  /// stage's offset equals the task's relative deadline.
  SimTime virtual_deadline_offset;
};

/// What the offline phase (Section IV-A) derives once per task: the stage
/// list and the WCET table. build_task builds it, and every clone of the
/// task (spec replicas, fleet admissions, placer and admission copies)
/// shares it read-only, so a copy costs a name and two pointers.
struct TaskClass {
  std::vector<StageInfo> stages;
  /// Isolated per-stage WCETs at each pool SM size (offline measurement).
  dnn::WcetTable wcet;
};

/// One stream: the per-stream fields plus its shared TaskClass.
struct Task {
  int id = 0;
  std::string name;
  std::shared_ptr<const dnn::Network> network;
  SimTime period;
  SimTime deadline;  // relative, explicit (paper: D_i given initially)
  SimTime phase;     // first release offset
  /// Sporadic tasks release with random inter-arrivals in
  /// [min_separation, max_separation]; zero fields default to the period
  /// (so utilization/admission math keyed on `period` stays worst-case
  /// correct when min_separation == period). Periodic tasks ignore both.
  ArrivalModel arrival = ArrivalModel::kPeriodic;
  SimTime min_separation;
  SimTime max_separation;
  /// Stages and WCETs; its virtual deadlines were split from `deadline`.
  /// A task built by hand has none unless it sets one.
  std::shared_ptr<const TaskClass> task_class;
  /// Placement footprint (dnn::Profiler::footprint, or spec overrides):
  /// device memory held while the stream is admitted, and time-averaged
  /// resident warps. Zero means unconstrained — raw tasks built without
  /// the offline phase take no memory/occupancy budget.
  std::int64_t mem_bytes = 0;
  std::int64_t warps = 0;

  const std::vector<StageInfo>& stages() const { return task_class->stages; }
  const dnn::WcetTable& wcet() const { return task_class->wcet; }
  int stage_count() const { return static_cast<int>(stages().size()); }
};

struct TaskConfig {
  std::string name = "task";
  double fps = 30.0;  // paper benchmark rate
  /// Relative deadline; zero means "equal to the period" (implicit).
  SimTime deadline = SimTime::zero();
  SimTime phase = SimTime::zero();
  int num_stages = 6;  // paper evaluation setup
  PriorityPolicy priority_policy = PriorityPolicy::kLastStageHigh;
};

/// Runs the offline phase for one task: partition, WCET profiling at each
/// pool SM size, two-level priorities, and proportional virtual deadlines
/// (proportions use the WCET at `pool_sm_sizes.front()`). Copies of the
/// result share its TaskClass.
Task build_task(int id, std::shared_ptr<const dnn::Network> network,
                const TaskConfig& cfg, const dnn::Profiler& profiler,
                const std::vector<int>& pool_sm_sizes);

}  // namespace sgprs::rt
