// Fleet scaling sweep: 1 → 8 devices with the per-device oversubscription
// (tasks per device) held constant. If the cluster layer scales, total FPS
// grows linearly with the device count while DMR and utilization stay flat;
// any placement-induced imbalance shows up as a DMR knee.
//
//   fig_cluster_scaling [scheduler] [placement] [tasks-per-device]
//     scheduler: sgprs|naive            (default sgprs)
//     placement: roundrobin|leastloaded|binpack|hash  (default binpack)
//     tasks-per-device                   (default 12)
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics/report.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  auto scheduler = rt::SchedulerKind::kSgprs;
  auto placement = cluster::PlacementPolicy::kBinPackUtilization;
  int tasks_per_device = 12;
  if (argc > 1) {
    const auto kind = rt::parse_scheduler_kind(argv[1]);
    if (!kind) {
      std::cerr << "unknown scheduler (want " << rt::scheduler_kind_names()
                << "): " << argv[1] << "\n";
      return 1;
    }
    scheduler = *kind;
  }
  if (argc > 2) {
    const auto policy = cluster::parse_placement_policy(argv[2]);
    if (!policy) {
      std::cerr << "unknown placement (want "
                << cluster::placement_policy_names() << "): " << argv[2]
                << "\n";
      return 1;
    }
    placement = *policy;
  }
  if (argc > 3) tasks_per_device = std::atoi(argv[3]);

  std::cout << "Cluster scaling: " << tasks_per_device
            << " ResNet18 tasks per device, scheduler "
            << rt::to_string(scheduler) << ", placement "
            << cluster::to_string(placement) << "\n\n";

  metrics::Table t({"devices", "offered", "placed", "total FPS",
                    "per-device FPS", "DMR", "mean util"});
  double fps_at_1 = 0.0;
  double fps_at_8 = 0.0;
  for (int devices = 1; devices <= 8; ++devices) {
    workload::ScenarioSpec spec;
    spec.base.scheduler = scheduler;
    spec.base.oversubscription = 1.5;
    spec.base.num_devices = devices;
    spec.base.placement = placement;
    spec.base.duration = common::SimTime::from_sec(2.0);
    spec.base.warmup = common::SimTime::from_sec(0.4);
    spec.fleet_mode = true;
    const int offered = tasks_per_device * devices;
    spec.tasks.emplace_back().count = offered;

    const auto r = workload::run_spec(spec);
    const auto& fleet = r.cluster.fleet;
    if (devices == 1) fps_at_1 = r.fps();
    if (devices == 8) fps_at_8 = r.fps();
    t.add_row({std::to_string(devices), std::to_string(offered),
               std::to_string(fleet.tasks_assigned),
               metrics::Table::fmt(r.fps(), 0),
               metrics::Table::fmt(r.fps() / devices, 0),
               metrics::Table::pct(r.dmr()),
               metrics::Table::pct(fleet.mean_utilization)});
    std::cerr << "  " << devices << " device(s) done\n";
  }
  t.print(std::cout);
  std::cout << "\nScaling efficiency at 8 devices (FPS vs 8x the 1-device "
               "run): "
            << metrics::Table::pct(
                   fps_at_1 > 0.0 ? fps_at_8 / (8.0 * fps_at_1) : 0.0)
            << "\n";
  return 0;
}
