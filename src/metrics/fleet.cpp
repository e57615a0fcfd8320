#include "metrics/fleet.hpp"

#include <tuple>
#include <utility>

namespace sgprs::metrics {

FleetReport roll_up(std::vector<DeviceReport> devices, Snapshot fleet,
                    int tasks_rejected, int tasks_oom_rejected) {
  FleetReport report;
  double weighted_util = 0.0;
  double total_sms = 0.0;
  for (const auto& d : devices) {
    weighted_util += static_cast<double>(d.total_sms) * d.utilization;
    total_sms += static_cast<double>(d.total_sms);
    report.tasks_assigned += d.tasks_assigned;
  }
  report.fleet = fleet;
  report.mean_utilization = total_sms > 0.0 ? weighted_util / total_sms : 0.0;
  report.tasks_rejected = tasks_rejected;
  report.tasks_oom_rejected = tasks_oom_rejected;
  report.devices = std::move(devices);
  return report;
}

FleetReport roll_up(std::vector<DeviceReport> devices,
                    const common::Histogram& latency_ms, int tasks_rejected,
                    int tasks_oom_rejected) {
  Snapshot fleet;
  for (const auto& d : devices) {
    const Snapshot& s = d.snapshot;
    fleet.counts.released += s.counts.released;
    fleet.counts.dropped += s.counts.dropped;
    fleet.counts.on_time += s.counts.on_time;
    fleet.counts.late += s.counts.late;
    fleet.fps += s.fps;
    fleet.fps_on_time += s.fps_on_time;
  }
  const auto closed = fleet.counts.closed();
  fleet.dmr = closed == 0
                  ? 0.0
                  : static_cast<double>(fleet.counts.late +
                                        fleet.counts.dropped) /
                        static_cast<double>(closed);
  // Distribution merge, not percentile averaging: integer bucket-count
  // sums make the fleet p50/p99 exact for any device split.
  if (!latency_ms.empty()) {
    fleet.mean_latency_ms = latency_ms.mean();
    std::tie(fleet.p50_latency_ms, fleet.p99_latency_ms) =
        latency_ms.quantiles(0.50, 0.99);
    fleet.max_latency_ms = latency_ms.max();
  }
  return roll_up(std::move(devices), fleet, tasks_rejected,
                 tasks_oom_rejected);
}

}  // namespace sgprs::metrics
