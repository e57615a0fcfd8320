// Device-class memos: a cluster keeps one gpu::DeviceClassMemo per
// (shard, device type) and attaches it to every executor of that type on
// the shard; a memo never serves an executor of another class.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "metrics/collector.hpp"
#include "rt/runner.hpp"
#include "sim/engine.hpp"
#include "workload/scenario.hpp"
#include "workload/spec.hpp"

namespace sgprs::cluster {
namespace {

using common::SimTime;

ClusterConfig one_spec_fleet(int devices, int shards) {
  ClusterConfig cfg;
  cfg.devices.assign(devices, gpu::rtx2080ti());
  cfg.placement = PlacementPolicy::kHashAffinity;
  cfg.admission_margin = 0.0;
  cfg.pool.num_contexts = 2;
  cfg.pool.oversubscription = 1.5;
  cfg.shards = shards;
  return cfg;
}

TEST(DeviceClassMemo, OneSpecFleetHoldsOneMemoPerShard) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    sim::Engine engine;
    metrics::Collector collector(SimTime::zero());
    Cluster fleet(engine, collector, one_spec_fleet(1000, shards));
    EXPECT_EQ(fleet.memo_count(), static_cast<std::size_t>(shards));
  }
}

TEST(DeviceClassMemo, HeterogeneousFleetHoldsOneMemoPerSpec) {
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/heterogeneous_fleet.json");
  const ClusterConfig cfg =
      workload::cluster_config_for(workload::lower(spec));
  ASSERT_EQ(cfg.devices.size(), 2u);
  ASSERT_EQ(cfg.shards, 1);
  sim::Engine engine;
  metrics::Collector collector(SimTime::zero());
  Cluster fleet(engine, collector, cfg);
  EXPECT_EQ(fleet.memo_count(), 2u);
}

/// What a run left on every device: its job counts and busy-SM integral.
std::vector<std::string> run_fleet(const workload::ScenarioSpec& spec,
                                   ClusterConfig cfg, std::size_t& memos) {
  const auto duration = SimTime::from_sec(0.5);
  sim::Engine engine;
  metrics::Collector collector(SimTime::from_sec(0.1));
  Cluster fleet(engine, collector, cfg);
  memos = fleet.memo_count();
  const workload::ScenarioConfig base = workload::lower(spec);
  fleet.place(workload::task_builder_for(spec)(base, fleet.pool_sm_sizes()));
  rt::RunnerConfig run;
  run.duration = duration;
  run.jitter_seed = base.seed;
  fleet.start(run);
  fleet.run_until(duration);
  fleet.reduce();
  EXPECT_GT(fleet.releases_issued(), 0);
  std::vector<std::string> out;
  for (int d = 0; d < fleet.num_devices(); ++d) {
    const metrics::DeviceReport r = fleet.device_report(d, duration);
    std::ostringstream os;
    os << std::hexfloat << r.tasks_assigned << " "
       << r.snapshot.counts.released << " " << r.snapshot.counts.on_time
       << " " << r.snapshot.counts.late << " " << r.snapshot.counts.dropped
       << " " << r.busy_sm_seconds;
    out.push_back(os.str());
  }
  return out;
}

TEST(DeviceClassMemo, ShardedFleetSharesPerShardMemosAndMatchesOneShard) {
  // heterogeneous_fleet's tasks on eight devices: four 2080 Ti, then four
  // 3090. At four shards each shard runs one of each on its own thread,
  // with a memo per class: eight memos, against two on one shard, and the
  // same per-device results.
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/heterogeneous_fleet.json");
  ClusterConfig cfg = workload::cluster_config_for(workload::lower(spec));
  cfg.devices.assign(4, gpu::rtx2080ti());
  cfg.devices.insert(cfg.devices.end(), 4, gpu::rtx3090());
  std::size_t one_shard_memos = 0;
  const auto one_shard = run_fleet(spec, cfg, one_shard_memos);
  EXPECT_EQ(one_shard_memos, 2u);
  cfg.shards = 4;
  std::size_t four_shard_memos = 0;
  EXPECT_EQ(run_fleet(spec, cfg, four_shard_memos), one_shard);
  EXPECT_EQ(four_shard_memos, 8u);
}

TEST(DeviceClassMemo, AddedDevicesJoinTheirShardsMemo) {
  sim::Engine engine;
  metrics::Collector collector(SimTime::zero());
  Cluster fleet(engine, collector, one_spec_fleet(2, 2));
  ASSERT_EQ(fleet.memo_count(), 2u);
  fleet.add_device(gpu::rtx2080ti());  // shard 0, its class is there
  EXPECT_EQ(fleet.memo_count(), 2u);
  fleet.add_device(gpu::rtx3090());  // shard 1, a new class
  EXPECT_EQ(fleet.memo_count(), 3u);
  fleet.add_device(gpu::rtx3090());  // shard 0, a new class there too
  EXPECT_EQ(fleet.memo_count(), 4u);
}

/// An executor with the paper's pool (2 contexts at over-subscription 1.5)
/// unless `cfg` says otherwise.
struct Device {
  explicit Device(const gpu::DeviceSpec& spec = gpu::rtx2080ti(),
                  const gpu::ContextPoolConfig& cfg = paper_pool(),
                  const gpu::SharingParams& sharing = {})
      : exec(engine, spec, gpu::SpeedupModel::rtx2080ti(), sharing),
        pool(exec, cfg) {}

  static gpu::ContextPoolConfig paper_pool() {
    gpu::ContextPoolConfig cfg;
    cfg.num_contexts = 2;
    cfg.oversubscription = 1.5;
    return cfg;
  }

  sim::Engine engine;
  gpu::Executor exec;
  gpu::ContextPool pool;
};

TEST(DeviceClassMemo, AttachingAMemoOfAnotherClassFailsTheCheck) {
  Device reference;
  gpu::DeviceClassMemo memo(reference.exec.device_class());

  Device same;
  same.exec.attach_memo(memo);  // same class: accepted

  Device other_spec(gpu::rtx3090());
  EXPECT_THROW(other_spec.exec.attach_memo(memo), common::CheckError);

  gpu::ContextPoolConfig three = Device::paper_pool();
  three.num_contexts = 3;
  Device other_pool(gpu::rtx2080ti(), three);
  EXPECT_THROW(other_pool.exec.attach_memo(memo), common::CheckError);

  gpu::ContextPoolConfig one_low = Device::paper_pool();
  one_low.low_streams_per_context = 1;
  Device other_streams(gpu::rtx2080ti(), one_low);
  EXPECT_THROW(other_streams.exec.attach_memo(memo), common::CheckError);

  gpu::SharingParams strict;
  strict.interference_gamma = 0.0;
  Device other_sharing(gpu::rtx2080ti(), Device::paper_pool(), strict);
  EXPECT_THROW(other_sharing.exec.attach_memo(memo), common::CheckError);
}

TEST(DeviceClassMemo, ContextsAndStreamsAreFixedOnceAttached) {
  Device reference;
  gpu::DeviceClassMemo memo(reference.exec.device_class());
  Device dev;
  dev.exec.attach_memo(memo);
  EXPECT_THROW(dev.exec.create_context(10), common::CheckError);
  EXPECT_THROW(dev.exec.create_stream(0, gpu::StreamPriority::kHigh),
               common::CheckError);
  EXPECT_EQ(dev.exec.stream_count(), reference.exec.stream_count());
}

}  // namespace
}  // namespace sgprs::cluster
