#include "workload/experiment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/json.hpp"
#include "common/thread_pool.hpp"

namespace sgprs::workload {
namespace {

/// Tiny-but-real experiment: lenet5 keeps each replication around a
/// millisecond of wall clock, so running the grid many times stays cheap.
constexpr const char* kTinyExperiment = R"({
  "description": "tiny grid for tests",
  "pool": { "contexts": 2 },
  "sim": { "duration_s": 0.4, "warmup_s": 0.1 },
  "tasks": [ { "count": 2, "network": "lenet5", "fps": 40, "stages": 3 } ],
  "experiment": {
    "replications": 3,
    "base_seed": 777,
    "grid": {
      "scheduler": ["sgprs", "naive"],
      "fps_scale": [0.5, 1.0, 2.0]
    }
  }
})";

ExperimentSpec tiny_spec() {
  return parse_experiment_spec(common::parse_json(kTinyExperiment), "tiny");
}

TEST(ExperimentSpecParse, ReadsSectionAndGridInFileOrder) {
  const auto spec = tiny_spec();
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.replications, 3);
  EXPECT_EQ(spec.base_seed, 777u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "scheduler");
  EXPECT_EQ(spec.axes[0].kind, GridAxisKind::kScheduler);
  ASSERT_EQ(spec.axes[0].schedulers.size(), 2u);
  EXPECT_EQ(spec.axes[1].name, "fps_scale");
  ASSERT_EQ(spec.axes[1].numeric.size(), 3u);
  EXPECT_EQ(cell_count(spec), 6u);
  // Base scenario parsed from the same document.
  EXPECT_EQ(spec.base.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.base.tasks[0].fps, 40.0);
}

TEST(ExperimentSpecParse, MissingExperimentSectionIsAnError) {
  const auto doc = common::parse_json(R"({ "tasks": [ { "fps": 30 } ] })");
  try {
    parse_experiment_spec(doc, "x");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("experiment"), std::string::npos);
  }
}

TEST(ExperimentSpecParse, ScenarioLoaderRejectsExperimentSpecs) {
  const auto doc = common::parse_json(kTinyExperiment);
  try {
    parse_scenario_spec(doc, "tiny");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment");
    EXPECT_NE(std::string(e.what()).find("--experiment"), std::string::npos);
  }
}

TEST(ExperimentSpecParse, UnknownAxisNamesFieldPath) {
  const auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "typo_axis": [1, 2] } }
  })");
  try {
    parse_experiment_spec(doc, "x");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.grid.typo_axis");
  }
}

TEST(ExperimentSpecParse, UnknownExperimentKeyRejected) {
  const auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "replication": 4 }
  })");
  EXPECT_THROW(parse_experiment_spec(doc, "x"), SpecError);
}

TEST(ExperimentSpecParse, NegativeSeedsRejectedNotWrapped) {
  const auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "base_seed": -1 }
  })");
  try {
    parse_experiment_spec(doc, "x");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.base_seed");
  }
  // Same rule for the sim and generator seeds it would override.
  EXPECT_THROW(parse_scenario_spec(common::parse_json(R"({
    "sim": { "seed": -7 },
    "tasks": [ { "network": "lenet5" } ]
  })"), "x"),
               SpecError);
}

TEST(ExperimentSpecParse, DevicesAxisRangeChecked) {
  // 2^32 + 1 survives as_int but would be UB when cast to int at cell
  // lowering — must be a clean field-path error instead.
  const auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "devices": [2, 4294967297] } }
  })");
  try {
    parse_experiment_spec(doc, "x");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.grid.devices[1]");
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  EXPECT_THROW(parse_experiment_spec(common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "devices": [0] } }
  })"), "x"),
               SpecError);
}

TEST(ExperimentSpecParse, BadAxisValueNamesElementPath) {
  const auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "fps_scale": [1.0, "fast"] } }
  })");
  try {
    parse_experiment_spec(doc, "x");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.grid.fps_scale[1]");
  }
}

TEST(ExperimentValidate, AxisCompatibilityChecks) {
  // utilization axis without a generator.
  auto doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "utilization": [1.0] } }
  })");
  EXPECT_THROW(validate(parse_experiment_spec(doc, "x")), SpecError);

  // fps_scale axis on a generator spec.
  doc = common::parse_json(R"({
    "generator": { "count": 4 },
    "experiment": { "grid": { "fps_scale": [1.0] } }
  })");
  EXPECT_THROW(validate(parse_experiment_spec(doc, "x")), SpecError);

  // non-positive scale values.
  doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "grid": { "fps_scale": [1.0, 0.0] } }
  })");
  try {
    validate(parse_experiment_spec(doc, "x"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.grid.fps_scale[1]");
  }

  // replications must be positive.
  doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": { "replications": 0 }
  })");
  EXPECT_THROW(validate(parse_experiment_spec(doc, "x")), SpecError);

  // runs = cells x replications is bounded, before any cell is lowered or
  // any run is planned.
  doc = common::parse_json(R"({
    "tasks": [ { "network": "lenet5" } ],
    "experiment": {
      "replications": 2000000000,
      "grid": { "scheduler": ["sgprs", "naive"] }
    }
  })");
  try {
    validate(parse_experiment_spec(doc, "x"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.experiment.replications");
  }
}

TEST(ExperimentCells, RowMajorEnumerationLastAxisFastest) {
  const auto spec = tiny_spec();  // scheduler (2) x fps_scale (3)
  EXPECT_EQ(cell_coords(spec, 0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(cell_coords(spec, 1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(cell_coords(spec, 2), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(cell_coords(spec, 3), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(cell_coords(spec, 5), (std::vector<std::size_t>{1, 2}));

  const auto labels = cell_labels(spec, 4);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, "scheduler");
  EXPECT_EQ(labels[0].second, "naive");
  EXPECT_EQ(labels[1].first, "fps_scale");
  EXPECT_EQ(labels[1].second, "1");
}

TEST(ExperimentCells, ScenarioForAppliesAxisValuesAndSeeds) {
  const auto spec = tiny_spec();
  const auto s0 = scenario_for(spec, 0, 0);  // sgprs, fps_scale 0.5
  EXPECT_EQ(s0.base.scheduler, rt::SchedulerKind::kSgprs);
  EXPECT_DOUBLE_EQ(s0.tasks[0].fps, 20.0);
  const auto s5 = scenario_for(spec, 5, 0);  // naive, fps_scale 2.0
  EXPECT_EQ(s5.base.scheduler, rt::SchedulerKind::kNaive);
  EXPECT_DOUBLE_EQ(s5.tasks[0].fps, 80.0);

  // Replications differ only in seed.
  const auto r0 = scenario_for(spec, 2, 0);
  const auto r1 = scenario_for(spec, 2, 1);
  EXPECT_NE(r0.base.seed, r1.base.seed);
  EXPECT_DOUBLE_EQ(r0.tasks[0].fps, r1.tasks[0].fps);
}

TEST(ExperimentSeeds, DeterministicDistinctStreams) {
  // Same coordinates -> same seed, any coordinate change -> new seed.
  EXPECT_EQ(experiment_seed(7, 3, 2, 0), experiment_seed(7, 3, 2, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::size_t cell = 0; cell < 8; ++cell) {
      for (int rep = 0; rep < 8; ++rep) {
        for (std::uint64_t stream : {0ull, 1ull}) {
          seen.insert(experiment_seed(base, cell, rep, stream));
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 8u * 8u * 2u) << "no collisions in a tiny box";
}

TEST(ExperimentRun, AggregatesEveryCellAndReplication) {
  const auto spec = tiny_spec();
  const auto r = run_experiment(spec, 1);
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.cells.size(), 6u);
  EXPECT_EQ(r.total_runs, 18);
  EXPECT_EQ(r.total_failures, 0);
  for (const auto& cell : r.cells) {
    EXPECT_EQ(cell.runs, 3);
    EXPECT_EQ(static_cast<int>(cell.dmr.count()), 3);
    EXPECT_GT(cell.fps.mean(), 0.0);
    const auto ci = cell.fps_on_time.confidence_interval();
    EXPECT_GE(ci.hi, ci.lo);
  }
  // fps_scale actually moves throughput: compare sgprs cells 0 (0.5x) and
  // 2 (2x): quadruple the offered rate must raise completed FPS.
  EXPECT_GT(r.cells[2].fps.mean(), r.cells[0].fps.mean());
}

/// The acceptance pin: serial execution, a 1-worker pool and a 4-worker
/// pool must produce byte-identical reports.
TEST(ExperimentRun, ReportsByteIdenticalAcrossWorkerCounts) {
  const auto spec = tiny_spec();
  const auto serial = run_experiment(spec, 1);
  const auto pool1 = run_experiment(spec, 1);
  const auto pool4 = run_experiment(spec, 4);

  const auto render = [](const ExperimentResult& r) {
    std::ostringstream csv;
    std::ostringstream json;
    std::ostringstream text;
    write_experiment_csv(r, csv);
    write_experiment_json(r, json);
    print_experiment(r, text);
    return csv.str() + "\n===\n" + json.str() + "\n===\n" + text.str();
  };
  EXPECT_EQ(render(serial), render(pool1));
  EXPECT_EQ(render(serial), render(pool4));
}

TEST(ExperimentRun, InvalidSpecRejectedBeforeAnyRun) {
  // Every cell is validated up front, so a bad base spec (or a bad
  // axis/base combination) aborts the whole experiment with a SpecError
  // instead of burning replications on doomed cells.
  auto spec = tiny_spec();
  spec.base.tasks[0].count = 0;
  EXPECT_THROW(run_experiment(spec, 1), SpecError);
}

TEST(ExperimentRun, FailureRowsRenderInReports) {
  // Failure accounting is plain reduction code; pin the report surface by
  // rendering a hand-built result with one failed cell.
  ExperimentResult r;
  r.name = "failures";
  r.replications = 2;
  r.cells.resize(2);
  r.cells[0].index = 0;
  r.cells[0].coords = {{"scheduler", "sgprs"}};
  r.cells[0].runs = 2;
  r.cells[0].dmr.add(0.0);
  r.cells[0].dmr.add(0.1);
  r.cells[1].index = 1;
  r.cells[1].coords = {{"scheduler", "naive"}};
  r.cells[1].failures = 2;
  r.cells[1].first_error = "spec.pool.contexts: boom";
  r.total_runs = 2;
  r.total_failures = 2;

  std::ostringstream csv;
  write_experiment_csv(r, csv);
  EXPECT_NE(csv.str().find("spec.pool.contexts: boom"), std::string::npos);

  std::ostringstream json;
  write_experiment_json(r, json);
  const auto doc = common::parse_json(json.str());
  EXPECT_EQ(doc.at("total_failures").as_int(), 2);
  EXPECT_EQ(doc.at("results").items()[1].at("failures").as_int(), 2);
  EXPECT_EQ(doc.at("results").items()[1].at("first_error").as_string(),
            "spec.pool.contexts: boom");

  std::ostringstream text;
  print_experiment(r, text);
  EXPECT_NE(text.str().find("2 failed replication(s)"), std::string::npos);
}

TEST(ExperimentRun, JsonReportRoundTrips) {
  const auto spec = tiny_spec();
  const auto r = run_experiment(spec, 2);
  std::ostringstream out;
  write_experiment_json(r, out);
  const auto doc = common::parse_json(out.str());
  EXPECT_EQ(doc.at("experiment").as_string(), "tiny");
  EXPECT_EQ(doc.at("replications").as_int(), 3);
  EXPECT_EQ(doc.at("cells").as_int(), 6);
  EXPECT_EQ(doc.at("total_runs").as_int(), 18);
  const auto& rows = doc.at("results").items();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].at("coords").at("scheduler").as_string(), "sgprs");
  EXPECT_EQ(rows[0].at("coords").at("fps_scale").as_string(), "0.5");
  EXPECT_GE(rows[0].at("dmr").at("ci95").as_number(), 0.0);
  EXPECT_GT(rows[0].at("fps").at("mean").as_number(), 0.0);
}

TEST(ExperimentRun, CsvHasHeaderAndOneRowPerCell) {
  const auto spec = tiny_spec();
  const auto r = run_experiment(spec, 2);
  std::ostringstream out;
  write_experiment_csv(r, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("cell,scheduler,fps_scale,runs,failures,dmr_mean", 0),
            0u)
      << line;
  int rows = 0;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 6);
}

TEST(ExperimentRun, SeedSweepWithoutGridIsOneCell) {
  // A generator spec makes the seed sweep meaningful: every replication
  // draws a fresh UUniFast task set from its derived generator seed.
  const auto doc = common::parse_json(R"({
    "pool": { "contexts": 2 },
    "sim": { "duration_s": 0.3, "warmup_s": 0.1 },
    "generator": { "count": 4, "total_utilization": 1.5, "stages": 3 },
    "experiment": { "replications": 5, "base_seed": 11 }
  })");
  const auto spec = parse_experiment_spec(doc, "sweep");
  EXPECT_EQ(cell_count(spec), 1u);
  const auto r = run_experiment(spec, 2);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_EQ(r.cells[0].runs, 5);
  EXPECT_EQ(r.cells[0].label(), "all");
  // Distinct task sets per replication -> genuine spread in throughput;
  // the CI must reflect more than one distinct sample.
  EXPECT_GT(r.cells[0].fps.max(), r.cells[0].fps.min());
  EXPECT_GT(r.cells[0].fps.confidence_interval().half_width, 0.0);
}

}  // namespace
}  // namespace sgprs::workload
