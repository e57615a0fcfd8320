#include "rt/task.hpp"

#include "common/check.hpp"

namespace sgprs::rt {

Task build_task(int id, std::shared_ptr<const dnn::Network> network,
                const TaskConfig& cfg, const dnn::Profiler& profiler,
                const std::vector<int>& pool_sm_sizes) {
  SGPRS_CHECK(network != nullptr);
  SGPRS_CHECK(cfg.fps > 0.0);
  SGPRS_CHECK(cfg.num_stages >= 1);
  SGPRS_CHECK(!pool_sm_sizes.empty());

  Task task;
  task.id = id;
  task.name = cfg.name;
  task.network = network;
  task.period = SimTime::from_sec(1.0 / cfg.fps);
  task.deadline = cfg.deadline == SimTime::zero() ? task.period : cfg.deadline;
  task.phase = cfg.phase;

  const auto plan = dnn::partition_into_stages(
      *network, profiler.cost_model(), cfg.num_stages);
  auto cls = std::make_shared<TaskClass>();
  cls->wcet = profiler.profile(*network, plan, pool_sm_sizes);

  // Virtual deadlines: split D_i across stages proportional to their WCET
  // share, measured at the pool's SM size (Section IV-A2). Offsets are
  // cumulative so the last stage's offset is exactly D_i.
  const int ref_sms = pool_sm_sizes.front();
  const double total_wcet = cls->wcet.total_at(ref_sms).to_sec();
  SGPRS_CHECK_MSG(total_wcet > 0.0, "task has zero WCET");

  const dnn::CostModel dispatch_cost = dnn::CostModel::calibrated();
  double cumulative = 0.0;
  cls->stages.reserve(plan.stages.size());
  for (int s = 0; s < plan.stage_count(); ++s) {
    StageInfo info;
    info.index = s;
    info.nodes = plan.stages[s];
    info.program = std::make_shared<const gpu::KernelProgram>(
        dnn::stage_kernels(*network, dispatch_cost, info.nodes));
    cumulative += cls->wcet.stage_at(s, ref_sms).to_sec();
    const double fraction = cumulative / total_wcet;
    info.virtual_deadline_offset = SimTime::from_sec(
        task.deadline.to_sec() * fraction);
    switch (cfg.priority_policy) {
      case PriorityPolicy::kLastStageHigh:
        info.base_priority = (s == plan.stage_count() - 1)
                                 ? StagePriority::kHigh
                                 : StagePriority::kLow;
        break;
      case PriorityPolicy::kAllLow:
        info.base_priority = StagePriority::kLow;
        break;
      case PriorityPolicy::kAllHigh:
        info.base_priority = StagePriority::kHigh;
        break;
    }
    cls->stages.push_back(std::move(info));
  }
  // Guard against rounding: the final stage deadline must equal D_i.
  cls->stages.back().virtual_deadline_offset = task.deadline;
  task.task_class = std::move(cls);

  // Placement footprint from the same profile pass (every construction
  // path — identical-task, spec, fleet prototypes — flows through here).
  const dnn::TaskFootprint fp =
      profiler.footprint(*network, ref_sms, task.period.to_sec());
  task.mem_bytes = fp.mem_bytes;
  task.warps = fp.warps;
  return task;
}

}  // namespace sgprs::rt
