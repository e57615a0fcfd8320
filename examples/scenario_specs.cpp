// Scenario specs walkthrough: a ScenarioSpec built in C++, the same spec
// as inline JSON (bit-identical to the first), and a heterogeneous
// multi-tenant spec with sporadic arrivals. See docs/scenario-format.md for
// the full schema.
//
//   ./examples/scenario_specs [path/to/spec.json]
#include <iostream>

#include "metrics/report.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  // Optional: run a spec file from disk instead of the built-in tour.
  if (argc > 1) {
    const auto spec = workload::load_scenario_spec(argv[1]);
    const auto r = workload::run_spec(spec);
    std::cout << spec.name << ": FPS "
              << metrics::Table::fmt(r.fps(), 1) << ", DMR "
              << metrics::Table::pct(r.dmr()) << "\n";
    return 0;
  }

  std::cout << "1) A spec built in C++: base config plus one task entry.\n";
  workload::ScenarioSpec built;
  built.base.num_contexts = 2;
  built.base.oversubscription = 1.5;
  built.tasks.emplace_back().count = 12;  // ResNet18 @ 30 fps, 6 stages
  const auto br = workload::run_spec(built);
  std::cout << "   12x ResNet18 @ 30 fps -> FPS "
            << metrics::Table::fmt(br.fps(), 1) << ", DMR "
            << metrics::Table::pct(br.dmr()) << "\n\n";

  std::cout << "2) The same workload as a declarative JSON spec.\n";
  const char* kSimple = R"json({
    "name": "inline_simple",
    "scheduler": "sgprs",
    "pool": { "contexts": 2, "oversubscription": 1.5 },
    "tasks": [ { "count": 12, "network": "resnet18", "fps": 30, "stages": 6 } ]
  })json";
  const auto simple = workload::parse_scenario_spec(
      common::parse_json(kSimple), "inline_simple");
  const auto sr = workload::run_spec(simple);
  std::cout << "   the JSON spec matches the C++ one: "
            << "FPS " << metrics::Table::fmt(sr.fps(), 1)
            << (sr.fps() == br.fps() ? " (bit-identical)" : " (DIVERGED!)")
            << "\n\n";

  std::cout << "3) One entry per tenant: a heterogeneous mix with\n"
               "   sporadic arrivals.\n";
  const char* kMixed = R"json({
    "name": "inline_mixed",
    "scheduler": "sgprs",
    "pool": { "contexts": 3, "oversubscription": 1.5 },
    "tasks": [
      { "name": "analytics", "count": 2, "network": "resnet50", "fps": 10, "stages": 8 },
      { "name": "camera", "count": 6, "network": "resnet18", "fps": 30, "stages": 6 },
      { "name": "burst", "count": 4, "network": "lenet5", "stages": 3,
        "arrival": "sporadic", "min_separation_ms": 16.7, "max_separation_ms": 50 }
    ]
  })json";
  const auto mixed = workload::parse_scenario_spec(
      common::parse_json(kMixed), "inline_mixed");
  const auto mr = workload::run_spec(mixed);
  metrics::Table t({"task", "FPS", "DMR"});
  t.add_row({"(aggregate)", metrics::Table::fmt(mr.fps(), 1),
             metrics::Table::pct(mr.dmr())});
  t.print(std::cout);

  std::cout << "\nThe curated library under scenarios/ runs the same way:\n"
               "  sgprs_cli --scenario=scenarios/paper_scenario1.json\n"
               "  sgprs_cli --suite=scenarios\n";
  return 0;
}
