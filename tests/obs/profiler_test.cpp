// Phase-profiler pins (--profile, docs/observability.md).
//
// The profiler reads the wall clock, so its *numbers* are untestable by
// design; what is pinned is everything else — the Stat arithmetic, the
// null-safe Scope contract, the sidecar JSON schema, and the property
// that attaching a profiler changes zero bytes of the deterministic
// report surface.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../workload/result_digest.hpp"
#include "common/json.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "workload/spec.hpp"

namespace sgprs::obs {
namespace {

using Phase = PhaseProfiler::Phase;

TEST(PhaseProfiler, StatAccumulatesCountTotalMax) {
  PhaseProfiler p;
  p.add(Phase::kSetup, 0.5);
  p.add(Phase::kSetup, 1.5);
  p.add(Phase::kReportWrite, 0.25);
  const auto& s = p.stat(Phase::kSetup);
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.total_s, 2.0);
  EXPECT_DOUBLE_EQ(s.max_s, 1.5);
  EXPECT_EQ(p.stat(Phase::kReportWrite).count, 1);
  EXPECT_EQ(p.stat(Phase::kEngineRun).count, 0);
}

TEST(PhaseProfiler, NullScopeIsInert) {
  // The off-path contract: a Scope on a null profiler never reads the
  // clock and records nothing. Instrumented code runs with this branch
  // only.
  PhaseProfiler::Scope scope(nullptr, Phase::kRun);
}

TEST(PhaseProfiler, ScopeRecordsOneSample) {
  PhaseProfiler p;
  {
    PhaseProfiler::Scope scope(&p, Phase::kPlacerBatch);
  }
  EXPECT_EQ(p.stat(Phase::kPlacerBatch).count, 1);
  EXPECT_GE(p.stat(Phase::kPlacerBatch).total_s, 0.0);
}

TEST(PhaseProfiler, SidecarJsonIsStrictAndSchemaTagged) {
  PhaseProfiler p;
  p.add(Phase::kSetup, 0.125);
  p.add(Phase::kShardPhase, 0.0625);
  p.add(Phase::kShardPhase, 0.0625);
  std::ostringstream os;
  p.write_json(os);
  const auto root = common::parse_json(os.str());  // throws on bad JSON
  EXPECT_EQ(root.at("schema").as_string(), "sgprs-profile-v1");
  const auto& phases = root.at("phases").items();
  ASSERT_EQ(phases.size(), 2u);  // only phases that fired
  EXPECT_EQ(phases[0].at("phase").as_string(), "setup");
  EXPECT_EQ(phases[0].at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(phases[0].at("total_s").as_number(), 0.125);
  EXPECT_EQ(phases[1].at("phase").as_string(), "shard_phase");
  EXPECT_EQ(phases[1].at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(phases[1].at("max_s").as_number(), 0.0625);
}

TEST(PhaseProfiler, PrintListsOnlyFiredPhases) {
  PhaseProfiler p;
  p.add(Phase::kEngineRun, 1.0);
  std::ostringstream os;
  p.print(os);
  EXPECT_NE(os.str().find("engine_run"), std::string::npos);
  EXPECT_EQ(os.str().find("placer_batch"), std::string::npos);
}

std::string report_bytes(workload::ScenarioSpec spec, int shards,
                         PhaseProfiler* profiler) {
  spec.base.shards = shards;
  workload::validate(spec);
  Instruments instruments;
  instruments.profiler = profiler;
  return workload::golden::result_bytes(workload::run_spec(
      spec, workload::spec_seeds(spec), nullptr, instruments));
}

TEST(PhaseProfiler, ProfilingDoesNotPerturbReportBytes) {
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/diurnal_wave.json");
  // Every shard count runs the same epoch loop, so it records the same
  // phase set; epochs are control-plane instants, so the per-epoch phase
  // counts match too.
  const Phase fired[] = {Phase::kSetup, Phase::kEngineRun, Phase::kShardPhase,
                         Phase::kControlPhase, Phase::kCollectorReduce};
  const int shard_counts[2] = {1, 4};
  PhaseProfiler profilers[2];
  for (int i = 0; i < 2; ++i) {
    const int shards = shard_counts[i];
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PhaseProfiler& profiler = profilers[i];
    EXPECT_EQ(report_bytes(spec, shards, nullptr),
              report_bytes(spec, shards, &profiler));
    for (const Phase p : fired) {
      EXPECT_GT(profiler.stat(p).count, 0) << PhaseProfiler::phase_name(p);
    }
    EXPECT_EQ(profiler.stat(Phase::kSetup).count, 1);
    EXPECT_EQ(profiler.stat(Phase::kEngineRun).count, 1);
    EXPECT_EQ(profiler.stat(Phase::kCollectorReduce).count, 1);
  }
  for (int p = 0; p < PhaseProfiler::kPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    SCOPED_TRACE(PhaseProfiler::phase_name(phase));
    EXPECT_EQ(profilers[0].stat(phase).count > 0,
              profilers[1].stat(phase).count > 0);
  }
  EXPECT_EQ(profilers[0].stat(Phase::kShardPhase).count,
            profilers[1].stat(Phase::kShardPhase).count);
  EXPECT_EQ(profilers[0].stat(Phase::kControlPhase).count,
            profilers[1].stat(Phase::kControlPhase).count);
}

TEST(PhaseProfiler, StaticSpecRecordsRuntimePhases) {
  // A closed-world spec runs in the fleet runtime, so it times the same
  // coarse phases as a dynamic one, and profiling moves no result bit.
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/paper_scenario1.json");
  ASSERT_FALSE(spec.dynamic());
  PhaseProfiler profiler;
  EXPECT_EQ(report_bytes(spec, 1, nullptr), report_bytes(spec, 1, &profiler));
  EXPECT_EQ(profiler.stat(Phase::kSetup).count, 1);
  EXPECT_EQ(profiler.stat(Phase::kEngineRun).count, 1);
  EXPECT_EQ(profiler.stat(Phase::kCollectorReduce).count, 1);
  EXPECT_GT(profiler.stat(Phase::kShardPhase).count, 0);
}

}  // namespace
}  // namespace sgprs::obs
