#include "rt/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sgprs::rt {

PoolCapacityModel pool_capacity(const gpu::SpeedupModel& speedup,
                                const gpu::SharingParams& sharing,
                                int device_total_sms, int num_contexts,
                                int sm_per_context, int streams_per_context,
                                gpu::OpClass rep_op) {
  SGPRS_CHECK(num_contexts >= 1);
  SGPRS_CHECK(sm_per_context >= 1);
  return pool_capacity(speedup, sharing, device_total_sms,
                       std::vector<int>(num_contexts, sm_per_context),
                       streams_per_context, rep_op);
}

PoolCapacityModel pool_capacity(const gpu::SpeedupModel& speedup,
                                const gpu::SharingParams& sharing,
                                int device_total_sms,
                                const std::vector<int>& ctx_sms,
                                int streams_per_context,
                                gpu::OpClass rep_op) {
  SGPRS_CHECK(!ctx_sms.empty());
  for (int sms : ctx_sms) SGPRS_CHECK(sms >= 1);
  SGPRS_CHECK(streams_per_context >= 1);

  // Fully saturated pool: every stream of every context runs one kernel.
  std::vector<gpu::ShareRequest> reqs;
  for (int c = 0; c < static_cast<int>(ctx_sms.size()); ++c) {
    for (int s = 0; s < streams_per_context; ++s) {
      reqs.push_back({c, 1.0, rep_op});
    }
  }
  const auto grants = gpu::compute_shares(speedup, device_total_sms, ctx_sms,
                                          reqs, sharing);
  PoolCapacityModel model;
  for (const auto& g : grants) model.work_rate += g.rate;
  model.total_slots = static_cast<int>(grants.size());
  model.per_slot_rate = model.work_rate / model.total_slots;
  return model;
}

// Task's demanded 1-SM work per second: whole-network WCET at 1 SM is not
// stored, so we take the whole-network WCET at the reference size — the
// smallest profiled one, whatever order the pool listed its sizes in — and
// scale by the representative-op speedup, exact when one op dominates.
double task_work_rate(const Task& task) {
  const std::vector<int>& sizes = task.wcet().sm_sizes;
  SGPRS_CHECK(!sizes.empty());
  const int ref = *std::min_element(sizes.begin(), sizes.end());
  const double wcet = task.wcet().total_at(ref).to_sec();
  const double s = gpu::SpeedupModel::rtx2080ti().speedup(
      gpu::OpClass::kConv, static_cast<double>(ref));
  return wcet * s / task.period.to_sec();
}

UtilizationReport utilization_test(const std::vector<Task>& tasks,
                                   const PoolCapacityModel& capacity,
                                   double safety_margin) {
  SGPRS_CHECK(capacity.work_rate > 0.0);
  SGPRS_CHECK(safety_margin > 0.0 && safety_margin <= 1.0);
  UtilizationReport rep;
  for (const auto& t : tasks) rep.offered_work_rate += task_work_rate(t);
  rep.capacity_work_rate = capacity.work_rate;
  rep.utilization = rep.offered_work_rate / rep.capacity_work_rate;
  rep.schedulable_by_utilization = rep.utilization <= safety_margin;
  return rep;
}

namespace {

/// response_time_estimate for a set whose utilization_test gave
/// `utilization`: passes each task's response (seconds) to `on_response`
/// and returns all_deadlines_met, allocating nothing itself.
template <typename OnResponse>
bool estimate_responses(const std::vector<Task>& tasks,
                        const PoolCapacityModel& capacity, int pool_sms,
                        double utilization, OnResponse&& on_response) {
  SGPRS_CHECK(capacity.per_slot_rate > 0.0);
  // Queueing inflation via the Sakasegawa M/M/c approximation: with c
  // parallel slots the queueing delay is service * rho^(sqrt(2(c+1))-1) /
  // (c (1 - rho)) — far gentler than single-server 1/(1-rho) until the
  // pool is genuinely close to saturation.
  const double rho = std::min(utilization, 0.999);
  const double c = static_cast<double>(capacity.total_slots);
  const double exponent = std::sqrt(2.0 * (c + 1.0)) - 1.0;
  const double inflation =
      1.0 + std::pow(rho, exponent) / (c * (1.0 - rho));
  const double conv_speedup = gpu::SpeedupModel::rtx2080ti().speedup(
      gpu::OpClass::kConv, static_cast<double>(pool_sms));
  bool all_met = utilization < 1.0;
  for (const auto& t : tasks) {
    // Stages run sequentially; each executes on one slot at the saturated
    // per-slot rate. Convert the pool-SM WCET into 1-SM work first.
    const double work = t.wcet().total_at(pool_sms).to_sec() * conv_speedup;
    const double response = work / capacity.per_slot_rate * inflation;
    on_response(response);
    if (response > t.deadline.to_sec()) all_met = false;
  }
  return all_met;
}

}  // namespace

ResponseTimeReport response_time_estimate(const std::vector<Task>& tasks,
                                          const PoolCapacityModel& capacity,
                                          int pool_sms) {
  ResponseTimeReport rep;
  rep.response_sec.reserve(tasks.size());
  rep.all_deadlines_met = estimate_responses(
      tasks, capacity, pool_sms,
      utilization_test(tasks, capacity, 1.0).utilization,
      [&rep](double response) { rep.response_sec.push_back(response); });
  return rep;
}

AdmitOutcome AdmissionController::try_admit_ex(const Task& task) {
  // Dropped on every path, admit or reject: each one modifies admitted_.
  utilization_.reset();
  admitted_.push_back(task);
  const auto util = utilization_test(admitted_, capacity_, margin_);
  if (!util.schedulable_by_utilization) {
    admitted_.pop_back();
    return AdmitOutcome::kRejectedUtilization;
  }
  // The same utilization as utilization_test(admitted_, capacity_, 1.0):
  // the margin only moves the verdict.
  if (!estimate_responses(admitted_, capacity_, pool_sms_, util.utilization,
                          [](double) {})) {
    admitted_.pop_back();
    return AdmitOutcome::kRejectedUtilization;
  }
  // Physical budgets, checked only when the device declares them. Warp
  // occupancy before memory so kRejectedMemory means memory alone blocked.
  if (budget_.total_warps > 0 &&
      static_cast<double>(warps_used_ + task.warps) >
          budget_.occupancy_threshold *
              static_cast<double>(budget_.total_warps)) {
    admitted_.pop_back();
    return AdmitOutcome::kRejectedOccupancy;
  }
  if (budget_.mem_bytes > 0 &&
      mem_used_ + task.mem_bytes > budget_.mem_bytes) {
    admitted_.pop_back();
    return AdmitOutcome::kRejectedMemory;
  }
  mem_used_ += task.mem_bytes;
  warps_used_ += task.warps;
  return AdmitOutcome::kAdmitted;
}

bool AdmissionController::remove(int task_id) {
  for (auto it = admitted_.begin(); it != admitted_.end(); ++it) {
    if (it->id == task_id) {
      mem_used_ -= it->mem_bytes;
      warps_used_ -= it->warps;
      admitted_.erase(it);
      utilization_.reset();
      return true;
    }
  }
  return false;
}

double AdmissionController::current_utilization() const {
  if (admitted_.empty()) return 0.0;
  if (!utilization_) {
    utilization_ = utilization_test(admitted_, capacity_, 1.0).utilization;
  }
  return *utilization_;
}

}  // namespace sgprs::rt
