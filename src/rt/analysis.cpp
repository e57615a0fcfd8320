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

namespace {

/// Task's demanded 1-SM work per second: whole-network WCET at 1 SM is not
/// stored, so reconstruct from the profiled pool-SM WCET times the speedup
/// — instead we integrate stage WCETs at the profiled size and scale by
/// the representative-op speedup, which is exact when one op dominates.
double task_work_rate_at(const Task& task, int pool_sms,
                         const gpu::SpeedupModel& speedup, gpu::OpClass rep) {
  const double wcet = task.wcet.total_at(pool_sms).to_sec();
  const double s = speedup.speedup(rep, static_cast<double>(pool_sms));
  return wcet * s / task.period.to_sec();
}

}  // namespace

double task_work_rate(const Task& task) {
  SGPRS_CHECK(!task.wcet.per_stage.empty());
  const int pool_sms = task.wcet.total.begin()->first;
  return task_work_rate_at(task, pool_sms, gpu::SpeedupModel::rtx2080ti(),
                           gpu::OpClass::kConv);
}

UtilizationReport utilization_test(const std::vector<Task>& tasks,
                                   const PoolCapacityModel& capacity,
                                   double safety_margin) {
  SGPRS_CHECK(capacity.work_rate > 0.0);
  SGPRS_CHECK(safety_margin > 0.0 && safety_margin <= 1.0);
  UtilizationReport rep;
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  for (const auto& t : tasks) {
    SGPRS_CHECK(!t.wcet.per_stage.empty());
    // Use the first profiled SM size as the reference.
    const int pool_sms = t.wcet.total.begin()->first;
    rep.offered_work_rate +=
        task_work_rate_at(t, pool_sms, speedup, gpu::OpClass::kConv);
  }
  rep.capacity_work_rate = capacity.work_rate;
  rep.utilization = rep.offered_work_rate / rep.capacity_work_rate;
  rep.schedulable_by_utilization = rep.utilization <= safety_margin;
  return rep;
}

ResponseTimeReport response_time_estimate(const std::vector<Task>& tasks,
                                          const PoolCapacityModel& capacity,
                                          int pool_sms) {
  SGPRS_CHECK(capacity.per_slot_rate > 0.0);
  ResponseTimeReport rep;
  const auto util = utilization_test(tasks, capacity, 1.0);
  // Queueing inflation via the Sakasegawa M/M/c approximation: with c
  // parallel slots the queueing delay is service * rho^(sqrt(2(c+1))-1) /
  // (c (1 - rho)) — far gentler than single-server 1/(1-rho) until the
  // pool is genuinely close to saturation.
  const double rho = std::min(util.utilization, 0.999);
  const double c = static_cast<double>(capacity.total_slots);
  const double exponent = std::sqrt(2.0 * (c + 1.0)) - 1.0;
  const double inflation =
      1.0 + std::pow(rho, exponent) / (c * (1.0 - rho));
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  const double slot_speedup =
      capacity.per_slot_rate;  // work/sec for the representative op
  (void)speedup;
  rep.all_deadlines_met = util.utilization < 1.0;
  for (const auto& t : tasks) {
    // Stages run sequentially; each executes on one slot at the saturated
    // per-slot rate. Convert the pool-SM WCET into 1-SM work first.
    const double work =
        t.wcet.total_at(pool_sms).to_sec() *
        gpu::SpeedupModel::rtx2080ti().speedup(gpu::OpClass::kConv,
                                               static_cast<double>(pool_sms));
    const double service = work / slot_speedup;
    const double response = service * inflation;
    rep.response_sec.push_back(response);
    if (response > t.deadline.to_sec()) rep.all_deadlines_met = false;
  }
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
  const auto rta = response_time_estimate(admitted_, capacity_, pool_sms_);
  if (!rta.all_deadlines_met) {
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
