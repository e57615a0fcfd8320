// Property-based check of the analytical admission layer against the
// simulator: across ~100 seeded UUniFast task sets, a set admitted by
// AdmissionController (utilization budget + response-time heuristic) must
// never miss a deadline when actually simulated on the pool the capacity
// model describes.
//
// The analysis is deliberately approximate (the executor is a processor-
// sharing system), so the property is pinned at a deployment-style margin
// — the same conservative regime the cluster layer runs at — not at the
// knife edge of margin 1.0.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dnn/profiler.hpp"
#include "rt/analysis.hpp"
#include "rt/runner.hpp"
#include "sim/engine.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset.hpp"

namespace sgprs::rt {
namespace {

constexpr double kMargin = 0.80;
constexpr int kTaskSets = 100;

class AdmissionPropertyTest : public ::testing::Test {
 protected:
  AdmissionPropertyTest()
      : profiler_(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                  dnn::CostModel::calibrated()),
        // 2 contexts x 51 SMs x 4 streams: exactly the pool an sgprs
        // device gets with contexts=2, oversubscription=1.5 on a 68-SM
        // device.
        capacity_(pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                                gpu::SharingParams{}, 68, 2, 51, 4)) {}

  dnn::Profiler profiler_;
  PoolCapacityModel capacity_;
};

TEST_F(AdmissionPropertyTest, AdmittedSetsNeverMissDeadlinesInSimulation) {
  int simulated_sets = 0;
  std::int64_t admitted_tasks = 0;
  int rejected_tasks = 0;

  for (std::uint64_t seed = 0; seed < kTaskSets; ++seed) {
    // Meta-draws derive the task-set shape from the seed, so every set is
    // different but the whole test is deterministic.
    common::Rng meta(seed * 7919 + 17);
    workload::RandomTaskSetConfig rcfg;
    rcfg.count = static_cast<int>(meta.uniform_int(4, 18));
    rcfg.total_utilization = meta.uniform(0.5, 3.5);
    rcfg.num_stages = static_cast<int>(meta.uniform_int(3, 8));
    rcfg.seed = seed;
    const auto tasks = workload::build_random_taskset(rcfg, profiler_, {51});

    AdmissionController ac(capacity_, 51, kMargin);
    std::vector<Task> admitted;
    for (const auto& t : tasks) {
      if (ac.try_admit(t)) {
        admitted.push_back(t);
      } else {
        ++rejected_tasks;
      }
    }
    if (admitted.empty()) continue;
    admitted_tasks += static_cast<std::int64_t>(admitted.size());
    ++simulated_sets;

    // The admitted set on one sgprs device of that pool. The controller
    // above already admitted it, so the cluster's own admission is off.
    workload::ScenarioConfig cfg;
    cfg.scheduler = workload::SchedulerKind::kSgprs;
    cfg.num_contexts = 2;
    cfg.oversubscription = 1.5;
    cfg.admission_margin = 0.0;
    const auto duration = common::SimTime::from_sec(1.0);
    sim::Engine engine;
    metrics::Collector collector(common::SimTime::from_sec(0.2));
    cluster::Cluster device(engine, collector,
                            workload::cluster_config_for(cfg));
    device.place(admitted);
    RunnerConfig run;
    run.duration = duration;
    run.jitter_seed = cfg.seed;
    device.start(run);
    device.run_until(duration);
    device.reduce();
    const metrics::Snapshot result = collector.aggregate(duration);

    EXPECT_DOUBLE_EQ(result.dmr, 0.0)
        << "seed " << seed << ": admission accepted "
        << admitted.size() << "/" << tasks.size() << " tasks (utilization "
        << ac.current_utilization() << ") but the simulation missed "
        << result.counts.late + result.counts.dropped << " of "
        << result.counts.closed() << " deadlines";
  }

  // The property must not pass vacuously: most sets simulate, and the
  // controller both admits real work and actually rejects overload.
  EXPECT_GT(simulated_sets, kTaskSets / 2);
  EXPECT_GT(admitted_tasks, kTaskSets);
  EXPECT_GT(rejected_tasks, 0);
}

}  // namespace
}  // namespace sgprs::rt
