// Offline schedulability analysis and admission control.
//
// The paper determines its pivot points empirically; this module adds the
// analytical counterpart a deployment needs: given a task set and a pool,
// estimate whether the set is schedulable *before* running it, and admit
// tasks incrementally against a utilization budget.
//
// The analysis is necessarily approximate (the executor is a processor-
// sharing system, not a partitioned uniprocessor), so it exposes both a
// lower-bound test (utilization) and a heuristic response-time estimate
// whose pessimism is configurable. Tests pin the analysis against the
// simulator: the analytical pivot must bracket the empirical one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpu/context_pool.hpp"
#include "gpu/speedup.hpp"
#include "rt/task.hpp"

namespace sgprs::rt {

struct PoolCapacityModel {
  /// Aggregate steady-state service rate of the pool, in units of
  /// "1-SM work seconds per wall second", under the sharing model: every
  /// stream busy, kernels space-sharing each context, global contention
  /// and interference applied.
  double work_rate = 0.0;
  /// Effective service rate of a single stream slot in one context
  /// (SM-seconds per second) at full pool saturation.
  double per_slot_rate = 0.0;
  int total_slots = 0;
};

/// Computes the saturated-capacity model for a pool of `num_contexts`
/// contexts of `sm_per_context` SMs with `streams_per_context` streams,
/// assuming kernels of op class `rep_op` (conv dominates DNN runtime).
PoolCapacityModel pool_capacity(const gpu::SpeedupModel& speedup,
                                const gpu::SharingParams& sharing,
                                int device_total_sms, int num_contexts,
                                int sm_per_context, int streams_per_context,
                                gpu::OpClass rep_op = gpu::OpClass::kConv);

/// Heterogeneous-pool variant: one entry of `ctx_sms` per context, so
/// explicit per-context SM limits are modelled exactly.
PoolCapacityModel pool_capacity(const gpu::SpeedupModel& speedup,
                                const gpu::SharingParams& sharing,
                                int device_total_sms,
                                const std::vector<int>& ctx_sms,
                                int streams_per_context,
                                gpu::OpClass rep_op = gpu::OpClass::kConv);

struct UtilizationReport {
  /// Offered load: 1-SM work seconds demanded per second by the task set.
  double offered_work_rate = 0.0;
  /// Pool capacity under the same units.
  double capacity_work_rate = 0.0;
  double utilization = 0.0;  // offered / capacity
  bool schedulable_by_utilization = false;
};

/// Necessary condition: offered work must not exceed capacity. `tasks`
/// must all be built against the pool SM size used to derive `capacity`.
UtilizationReport utilization_test(const std::vector<Task>& tasks,
                                   const PoolCapacityModel& capacity,
                                   double safety_margin = 1.0);

/// One task's demanded 1-SM work per second, evaluated exactly as the
/// utilization test sees it (first profiled SM size, representative conv
/// speedup). Exposed so placement policies can order candidates by the
/// same load metric admission uses.
double task_work_rate(const Task& task);

struct ResponseTimeReport {
  /// Heuristic worst-case response estimate per task (seconds).
  std::vector<double> response_sec;
  bool all_deadlines_met = false;
};

/// Heuristic response-time estimate: each task's job executes its stages
/// sequentially at the per-slot rate, plus queueing delay proportional to
/// utilization (M/G/1-flavoured inflation). Pessimism grows sharply as
/// utilization approaches 1, mirroring the empirically observed pivot.
ResponseTimeReport response_time_estimate(const std::vector<Task>& tasks,
                                          const PoolCapacityModel& capacity,
                                          int pool_sms);

/// Physical resource budget of the device behind a pool. Zero fields mean
/// "unconstrained" — raw tasks and legacy call sites keep passing.
struct ResourceBudget {
  std::int64_t mem_bytes = 0;
  std::int64_t total_warps = 0;
  /// Fraction of the warp capacity admission may commit (CASE uses 0.9).
  double occupancy_threshold = 0.9;
};

/// Why an admission attempt failed (or that it succeeded). Memory is
/// tested last, so kRejectedMemory means memory was the *sole* remaining
/// blocker — the stream would have fit by compute alone.
enum class AdmitOutcome {
  kAdmitted,
  kRejectedUtilization,
  kRejectedOccupancy,
  kRejectedMemory,
};

/// Admission controller: accepts tasks one at a time while the utilization
/// test (with margin), the response-time estimate, and the physical
/// resource budget (memory, warp occupancy) all pass.
class AdmissionController {
 public:
  AdmissionController(PoolCapacityModel capacity, int pool_sms,
                      double safety_margin = 0.95,
                      ResourceBudget budget = ResourceBudget{})
      : capacity_(capacity),
        pool_sms_(pool_sms),
        margin_(safety_margin),
        budget_(budget) {}

  /// Tries to admit `task`; returns true and retains it if the augmented
  /// set still passes every test.
  bool try_admit(const Task& task) {
    return try_admit_ex(task) == AdmitOutcome::kAdmitted;
  }

  /// As try_admit, but reports which test rejected the task.
  AdmitOutcome try_admit_ex(const Task& task);

  /// Records `task` without testing (admission control disabled, or the
  /// decision was made elsewhere); load accounting stays accurate.
  void force_admit(const Task& task) {
    mem_used_ += task.mem_bytes;
    warps_used_ += task.warps;
    admitted_.push_back(task);
    utilization_.reset();
  }

  /// Releases the capacity held by task `task_id` (stream retired or
  /// re-placed elsewhere). Returns false when no admitted task has the id.
  bool remove(int task_id);

  const std::vector<Task>& admitted() const { return admitted_; }
  /// utilization_test's utilization of the admitted set, recomputed only
  /// after the set changes.
  double current_utilization() const;
  std::int64_t mem_used() const { return mem_used_; }
  std::int64_t warps_used() const { return warps_used_; }
  const ResourceBudget& budget() const { return budget_; }

 private:
  PoolCapacityModel capacity_;
  int pool_sms_;
  double margin_;
  ResourceBudget budget_;
  std::vector<Task> admitted_;
  /// current_utilization's value; empty once admitted_ has changed since.
  mutable std::optional<double> utilization_;
  /// Integer resource accounting: exact under any admit/remove order, so
  /// sharded and replayed runs see identical budgets.
  std::int64_t mem_used_ = 0;
  std::int64_t warps_used_ = 0;
};

}  // namespace sgprs::rt
